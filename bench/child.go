package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"neusight/internal/cluster"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// roleServer is the hidden first argument that makes the bench binary run
// as the server child instead of as the benchmark.
const roleServer = "-role=server"

// childConfig is what the parent asks of a server child.
type childConfig struct {
	ModelDir string // where trainAndSave wrote the model
	Members  int    // 1: a plain service; >1: that many cluster members in this one process
	Cache    int    // serve.Config.CacheSize (0: the service default)
	Record   string // when set, a TraceRecorder appends to this file
	PlanDir  string // when set, members get a plan.Manager checkpointing under it
}

func (c childConfig) args() []string {
	return []string{roleServer,
		"-dir", c.ModelDir, "-members", strconv.Itoa(c.Members), "-cache", strconv.Itoa(c.Cache),
		"-record", c.Record, "-plan-dir", c.PlanDir}
}

// hello is the one line a child prints once it listens.
type hello struct {
	Addrs      []string `json:"addrs"`
	GOMAXPROCS int      `json:"gomaxprocs"`
}

// procSnap is the child's own view of what it has consumed, served on
// /bench/proc. Counters are cumulative since process start; the parent
// differences two snapshots.
type procSnap struct {
	CPUSec     float64 `json:"cpu_s"` // user + system, getrusage
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	NumGC      uint32  `json:"num_gc"`
	GCPauseNs  uint64  `json:"gc_pause_ns"`
	PeakRSSKB  int64   `json:"peak_rss_kb"` // VmHWM
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// readProc snapshots this process. ReadMemStats stops the world, so the
// untraced run asks without it.
func readProc(withMem bool) procSnap {
	var s procSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.CPUSec = tvSec(ru.Utime) + tvSec(ru.Stime)
	}
	if !withMem {
		return s
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Mallocs, s.AllocBytes, s.NumGC, s.GCPauseNs = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				s.PeakRSSKB, _ = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			}
		}
	}
	return s
}

// newMember builds one serving member — service, trace recorder, planner —
// around eng as cfg asks. The child builds each of its members with it and
// the traced run its in-process twin, so the two cannot differ. The
// returned functions release what the member holds, in reverse order.
func newMember(eng predict.Engine, cfg childConfig, index int) (*serve.Service, *plan.Manager, []func(), error) {
	svc := serve.NewMulti(newRegistry(eng), eng.Name(), serve.Config{CacheSize: cfg.Cache})
	var stops []func()
	if cfg.Record != "" {
		rec, err := serve.NewTraceRecorder(fmt.Sprintf("%s.%d", cfg.Record, index))
		if err != nil {
			return nil, nil, nil, err
		}
		svc.SetTraceRecorder(rec)
		stops = append(stops, func() { rec.Close() })
	}
	var pm *plan.Manager
	if cfg.PlanDir != "" {
		reg := svc.Registry()
		var err error
		pm, err = plan.NewManager(fmt.Sprintf("%s/member%d", cfg.PlanDir, index), func(name string) (predict.Engine, error) {
			if name == "" {
				name = eng.Name()
			}
			return reg.Get(name)
		}, plan.Options{})
		if err != nil {
			return nil, nil, stops, err
		}
		svc.SetPlanner(pm)
		stops = append(stops, pm.Close)
	}
	return svc, pm, stops, nil
}

// benchMux adds the bench's own routes in front of a member's handler:
// /bench/proc, and /bench/profile to start (?file=) and stop a CPU profile.
func benchMux(inner http.Handler) http.Handler {
	var mu sync.Mutex
	var profile *os.File
	mux := http.NewServeMux()
	mux.HandleFunc("/bench/proc", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(readProc(r.URL.Query().Get("mem") == "1"))
	})
	mux.HandleFunc("/bench/profile", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if path := r.URL.Query().Get("file"); path != "" {
			f, err := os.Create(path)
			if err == nil {
				if err = pprof.StartCPUProfile(f); err != nil {
					f.Close()
				}
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			profile = f
			return
		}
		if profile != nil {
			pprof.StopCPUProfile()
			if err := profile.Close(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			profile = nil
		}
	})
	mux.HandleFunc("/bench/cal", calHandler)
	mux.Handle("/", inner)
	return mux
}

// serverMain is the server child: it loads the saved model, listens on
// loopback, prints its addresses, and serves until its standard input
// closes — so a parent that dies takes its child with it.
func serverMain(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	var cfg childConfig
	fs.StringVar(&cfg.ModelDir, "dir", "", "")
	fs.IntVar(&cfg.Members, "members", 1, "")
	fs.IntVar(&cfg.Cache, "cache", 0, "")
	fs.StringVar(&cfg.Record, "record", "", "")
	fs.StringVar(&cfg.PlanDir, "plan-dir", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadModel(cfg.ModelDir)
	if err != nil {
		return err
	}
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()

	type member struct {
		ln   net.Listener
		node *cluster.Node
	}
	members := make([]member, cfg.Members)
	hi := hello{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for i := range members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		members[i].ln = ln
		hi.Addrs = append(hi.Addrs, ln.Addr().String())

		eng := predict.NewCoreEngine(p)
		svc, pm, memberStops, err := newMember(eng, cfg, i)
		stops = append(stops, memberStops...)
		if err != nil {
			return err
		}
		handler := serve.NewHandler(svc)
		if cfg.Members > 1 {
			node, err := cluster.NewNode(cluster.Config{
				Self: ln.Addr().String(), Steer: cluster.SteerProxy,
				PollInterval: 200 * time.Millisecond, HealthInterval: 200 * time.Millisecond,
				Registry: svc.Registry(), DefaultEngine: eng.Name(), Invalidate: svc.InvalidateEngine,
			})
			if err != nil {
				return err
			}
			if pm != nil {
				pm.SetDispatcher(node.PlanDispatcher())
			}
			members[i].node = node
			handler = node.Handler(handler)
		}
		srv := &http.Server{Handler: benchMux(handler), ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		stops = append(stops, func() { srv.Close() })
	}
	for i, m := range members {
		if m.node == nil {
			continue
		}
		var peers []string
		for j, addr := range hi.Addrs {
			if j != i {
				peers = append(peers, addr)
			}
		}
		m.node.SetPeers(peers)
		m.node.Start()
		stops = append(stops, m.node.Stop)
	}

	if err := json.NewEncoder(os.Stdout).Encode(hi); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, os.Stdin)
	return err
}

// child is a running server child as the parent holds it.
type child struct {
	hello
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// startChild re-executes this binary as a server child and waits for it to
// listen.
func startChild(cfg childConfig) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, cfg.args()...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the server child: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &c.hello)
	}
	if err == nil && len(c.Addrs) != cfg.Members {
		err = fmt.Errorf("child listens on %d addresses, want %d", len(c.Addrs), cfg.Members)
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("server child did not come up: %w", err)
	}
	return c, nil
}

// stop closes the child's standard input, which ends it, and waits for it.
func (c *child) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		return fmt.Errorf("server child ignored its closed input and was killed: %v", <-done)
	}
}

func (c *child) url(member int) string { return "http://" + c.Addrs[member] }
