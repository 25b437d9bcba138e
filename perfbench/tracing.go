package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed layer call of a traced run. Spans of one traced
// operation share Run; Parent is the operation's root span.
type span struct {
	Name         string
	ID, Parent   int
	Run          int
	Start, Until time.Time
}

// tracer keeps every span in memory until the benchmark ends and then
// writes them once as Chrome Trace Event JSON.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ids   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	s.ID = t.ids
	t.spans = append(t.spans, s)
	return s.ID
}

// runTrace records the layer calls of one traced operation: each call
// is a span (when a tracer is attached) carrying the operation's run
// id, runs under a pprof "layer" label so CPU samples attribute to it,
// and adds its duration to the operation's per-layer total.
type runTrace struct {
	t     *tracer // nil: time the layers without recording spans
	run   int
	root  int
	ctx   context.Context
	times map[string]time.Duration
}

func newRunTrace(t *tracer, run int) *runTrace {
	return &runTrace{t: t, run: run, ctx: context.Background(),
		times: make(map[string]time.Duration)}
}

func (rt *runTrace) span(layer string, fn func()) {
	start := time.Now()
	pprof.Do(rt.ctx, pprof.Labels("layer", layer), func(context.Context) { fn() })
	until := time.Now()
	rt.times[layer] += until.Sub(start)
	if rt.t != nil {
		rt.t.add(span{Name: layer, Parent: rt.root, Run: rt.run, Start: start, Until: until})
	}
}

// operation wraps a whole traced operation in its root span; the layer
// spans recorded inside it become its children.
func (rt *runTrace) operation(name string, fn func()) time.Duration {
	start := time.Now()
	if rt.t != nil {
		// Reserve the root id first so children can name their parent.
		rt.root = rt.t.add(span{Name: name, Run: rt.run, Start: start})
	}
	fn()
	until := time.Now()
	if rt.t != nil {
		rt.t.mu.Lock()
		for i := len(rt.t.spans) - 1; i >= 0; i-- {
			if rt.t.spans[i].ID == rt.root {
				rt.t.spans[i].Until = until
				break
			}
		}
		rt.t.mu.Unlock()
	}
	return until.Sub(start)
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// writeChrome writes the spans as Chrome Trace Event JSON (complete
// "X" events, microsecond timestamps), which Perfetto and
// chrome://tracing open, then reads the file back to check that it
// parses and holds every span.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := traceFile{DisplayTimeUnit: "ms", OtherData: meta, TraceEvents: make([]traceEvent, 0, len(t.spans))}
	for _, s := range t.spans {
		cat := "layer"
		if s.Parent == 0 {
			cat = "operation"
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.Until.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"run": s.Run, "span": s.ID, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read trace back: %w", err)
	}
	var parsed traceFile
	if err := json.Unmarshal(back, &parsed); err != nil {
		return fmt.Errorf("trace %s is not valid JSON: %w", path, err)
	}
	if len(parsed.TraceEvents) != len(t.spans) {
		return fmt.Errorf("trace %s holds %d events for %d spans", path, len(parsed.TraceEvents), len(t.spans))
	}
	return nil
}

// cpuShareLayers are the packages whose self time the cpu_share
// metrics report; everything else folds into "other".
var cpuShareLayers = []string{"sim", "sched", "cluster", "metrics", "runtime", "other"}

// cpuShares folds the flat (self) samples of a CPU profile taken under
// the pprof layer label focus into per-package shares, using go tool
// pprof from the installed toolchain.
func cpuShares(ctx context.Context, exe, profile, focus string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-unit=ns", "-tagfocus=layer="+focus, exe, profile)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(&stdout)
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ns"), 64)
		if err != nil {
			continue
		}
		pkg := layerOfFunc(strings.Join(fields[5:], " "))
		flat[pkg] += ns
		total += ns
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples under layer=%s", focus)
	}
	shares := make(map[string]float64, len(cpuShareLayers))
	for _, l := range cpuShareLayers {
		shares[l] = flat[l] / total
	}
	return shares, nil
}

// layerOfFunc maps a profiled function name such as
// "versaslot/internal/sim.(*Kernel).Step" to its cpu_share layer.
func layerOfFunc(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "versaslot/internal/"):
		name := strings.TrimPrefix(pkg, "versaslot/internal/")
		for _, l := range cpuShareLayers {
			if name == l {
				return l
			}
		}
	}
	return "other"
}
