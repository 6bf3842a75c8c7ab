module ptrider/bench

go 1.24

require ptrider v0.0.0

replace ptrider => ../
