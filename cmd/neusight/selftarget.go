package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"neusight/internal/cluster"
	"neusight/internal/gpusim"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// selfRegistry resolves a -self mode to a constructor of engine registries
// (one per in-process member) and their default engine. roofline is
// instant (analytical engine only); quick first trains the reduced
// neusight predictor once, the way `serve -quick` does, and every registry
// serves it alongside the free engines.
func selfRegistry(mode string) (func() (*predict.Registry, string), error) {
	switch mode {
	case "roofline":
		return func() (*predict.Registry, string) {
			reg := predict.NewRegistry()
			reg.MustRegister(predict.NewRooflineEngine())
			return reg, predict.EngineRoofline
		}, nil
	case "quick":
		fmt.Fprintln(os.Stderr, "training a reduced in-process predictor...")
		p := quickPredictor()
		return func() (*predict.Registry, string) {
			reg := predict.NewRegistry()
			reg.MustRegister(predict.NewCoreEngine(p))
			reg.MustRegister(predict.NewRooflineEngine())
			reg.MustRegister(predict.NewSimEngine(gpusim.New()))
			return reg, predict.EngineNeuSight
		}, nil
	}
	return nil, fmt.Errorf("unknown -self mode %q (want roofline or quick)", mode)
}

// startSelfCluster boots n in-process members on loopback ports and
// returns a stop function and their base URLs. One member is a plain
// prediction service; two or more are cluster members wired all-to-all —
// a full local cluster behind one command, which is how `neusight plan
// -self-cluster` and scripts/plan_e2e.sh exercise the planner's fan-out
// without managing processes.
func startSelfCluster(mode string, n int, cfg serve.Config) (func(), []string, error) {
	newRegistry, err := selfRegistry(mode)
	if err != nil {
		return nil, nil, err
	}

	type member struct {
		addr string
		node *cluster.Node // nil for a lone member
		srv  *http.Server
		pm   *plan.Manager
	}
	members := make([]*member, 0, n)
	closeAll := func() {
		for _, m := range members {
			m.pm.Close()
			m.srv.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		reg, def := newRegistry()
		svc := serve.NewMulti(reg, def, cfg)
		pm, err := plan.NewManager("", planResolver(reg, def), plan.Options{})
		if err != nil {
			ln.Close()
			closeAll()
			return nil, nil, err
		}
		svc.SetPlanner(pm)
		m := &member{addr: ln.Addr().String(), pm: pm}
		handler := serve.NewHandler(svc)
		if n > 1 {
			m.node, err = cluster.NewNode(cluster.Config{
				Self:          m.addr,
				Registry:      reg,
				DefaultEngine: def,
				Invalidate:    svc.InvalidateEngine,
			})
			if err != nil {
				pm.Close()
				ln.Close()
				closeAll()
				return nil, nil, err
			}
			// Every member's planner is wired to the cluster's fan-out
			// hook, so a /v2/plan submitted to any member spreads its
			// configuration batches across all of them.
			pm.SetDispatcher(m.node.PlanDispatcher())
			handler = m.node.Handler(handler)
		}
		m.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		go m.srv.Serve(ln)
		members = append(members, m)
	}

	seeds := make([]string, n)
	for i, m := range members {
		seeds[i] = "http://" + m.addr
		if m.node == nil {
			continue
		}
		peers := make([]string, 0, n-1)
		for j, o := range members {
			if j != i {
				peers = append(peers, o.addr)
			}
		}
		m.node.SetPeers(peers)
		m.node.Start()
	}
	stop := func() {
		for _, m := range members {
			m.pm.Close()
			if m.node != nil {
				m.node.Stop()
			}
			m.srv.Close()
		}
	}
	return stop, seeds, nil
}
