// gateway.go is the cluster front door: the multicity.Coordinator — the
// one multi-city core.Service implementation — built over remote city
// shards, so the cluster presents exactly the namespace, aggregates and
// errors the in-process router does. Cross-city trips run the
// coordinator's relay scheduler gateway-side, its probe/commit/
// compensate legs travelling over the shards' /v1 API; a shard that
// dies inside the commit window surfaces core.ErrUnavailable, which the
// scheduler answers with deferred compensation retried every Advance
// until the shard's WAL-driven restart acknowledges the release.
package cluster

import (
	"fmt"
	"strings"
	"sync"

	"ptrider/internal/core"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/telemetry"
)

// GatewayConfig tunes a Gateway. The zero value means defaults.
type GatewayConfig struct {
	// Client configures every shard client.
	Client ClientConfig
	// Relay configures the gateway-side relay scheduler (transfer
	// buffer, gateway fan-out width, durability). The legs are in the
	// shards' WALs; with Relay.Durability on, the gateway journals the
	// trip ledger under Relay.WALDir too, so a restarted gateway keeps
	// its trip ids and compensates the trips a crash left in the
	// commit window. Off, a restart forgets every relay trip.
	Relay relay.Config
	// Registry, when non-nil, receives the gateway's own telemetry and
	// is merged with the shards' fetched families (city-labeled) by
	// MetricFamilies.
	Registry *telemetry.Registry
}

// Gateway is the Coordinator whose every city backend is a ShardClient.
// All methods are safe for concurrent use.
type Gateway struct {
	*multicity.Coordinator
}

// NewGateway connects to one shard per address and assembles the
// cluster service. Addresses are "host:port" or full URLs, optionally
// prefixed "name=" to assign the city name (default "city<i>"). Every
// shard must pass its readiness probe within the client dial timeout.
func NewGateway(addrs []string, cfg GatewayConfig) (*Gateway, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses: %w", core.ErrInvalidArgument)
	}
	if cfg.Client.Registry == nil {
		cfg.Client.Registry = cfg.Registry
	}

	// Dial concurrently: every shard health-checks and ships its meta
	// and graph before the gateway serves anything.
	cities := make([]multicity.City, len(addrs))
	clients := make([]*ShardClient, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, a := range addrs {
		name, bare, named := strings.Cut(a, "=")
		if !named {
			name, bare = fmt.Sprintf("city%d", i), a
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if clients[i], errs[i] = Dial(bare, cfg.Client); errs[i] == nil {
				cities[i] = multicity.City{Name: name, Region: clients[i].meta.Region, Backend: clients[i]}
			}
		}(i)
	}
	wg.Wait()
	closeAll := func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("cluster: shard %s: %w", addrs[i], err)
		}
	}

	// The relay scheduler needs a city pair; a one-shard cluster serves
	// cross-city rejections instead (there is no second city anyway).
	var relayCfg *relay.Config
	if len(addrs) >= 2 {
		relayCfg = &cfg.Relay
	}
	coord, err := multicity.NewCoordinator(cities, relayCfg, cfg.Registry)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &Gateway{coord}, nil
}
