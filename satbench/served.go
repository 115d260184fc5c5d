package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"satin"
	"satin/internal/serve"
	"satin/internal/shard"
)

// served is served-sweep: the campaign is submitted to an in-process
// coordinator on a loopback listener and drained by two serve.RunWorker
// goroutines of one simulation each, which lease shards, report progress
// per cell and upload shard files that the coordinator merges.
type served struct {
	in     campaignInput
	shards int

	lastBytes []byte
	last      servedStats
}

// servedStats is what the last section learned about the serve layer,
// for the traced run's per-layer metrics.
type servedStats struct {
	rt        *meteredTransport
	scrape    []byte // one /metrics exposition, taken after the merge
	mergeMs   float64
	idleRatio float64
}

func newServed(seed uint64, cells, shards int) (*served, error) {
	pin := ""
	if seed == defaultSeed && cells == sweepCells && shards == sweepShards {
		pin = pinnedDigest[servedW]
	}
	in, err := newCampaignInput(sweepCampaign(seed, cells), pin)
	if err != nil {
		return nil, err
	}
	return &served{in: in, shards: shards}, nil
}

func (sv *served) section(ctx context.Context, e *env) (section, error) {
	process := fmt.Sprintf("%s section %d", servedW, e.seq+1)
	dir := e.next("serve")
	meter, err := newTrialMeter(e.tr, process, sv.in.cells)
	if err != nil {
		return section{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()

	srv, err := serve.New(serve.Options{DataDir: filepath.Join(dir, "coord"), GroupKey: satin.CheckpointGroupKey})
	if err != nil {
		return section{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// One transport for every client caps the connections at the worker
	// count: the benchmark's own submit and result calls share them.
	base := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	defer base.CloseIdleConnections()
	rt := &meteredTransport{base: base, tr: e.tr, process: process}
	client := func(name string) *serve.Client {
		return &serve.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: rt.named(name)}}
	}
	user := client("client")
	st, err := user.Submit(ctx, sv.in.json, sv.shards)
	if err != nil {
		return section{}, err
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	returned := make(chan time.Time, workers) // one send per worker
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		opt := serve.WorkerOptions{
			Name:       name,
			Dir:        filepath.Join(dir, name),
			Trial:      meter.spec,
			GroupKey:   satin.CheckpointGroupKey,
			GroupTrial: meter.group,
			Workers:    1,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			begin := time.Now()
			errs[i] = serve.RunWorker(ctx, client(name), opt)
			end := time.Now()
			e.tr.add(process, name, "serve.RunWorker", "", begin, end)
			returned <- end
		}(i)
	}
	// The first worker to return saw every shard done, so the job has been
	// merged; the other may still sleep out one lease poll.
	<-returned
	data, err := user.Result(ctx, st.ID)
	end := time.Now()
	runtime.ReadMemStats(&after)
	wg.Wait()
	for _, werr := range errs {
		if werr != nil {
			return section{}, werr
		}
	}
	if err != nil {
		return section{}, err
	}

	status, err := srv.Status(st.ID)
	if err != nil {
		return section{}, err
	}
	spans, err := srv.Timeline(st.ID)
	if err != nil {
		return section{}, err
	}
	var cellMs []float64
	stats := servedStats{rt: rt}
	for _, sp := range spans {
		switch {
		case strings.HasPrefix(sp.Name, "cell "):
			cellMs = append(cellMs, ms(sp.End-sp.Begin))
		case sp.Name == "merge":
			stats.mergeMs = ms(sp.End - sp.Begin)
		}
	}
	if r := status.Stragglers; r != nil {
		var active, idle float64
		for _, sh := range r.Shards {
			active += sh.ActiveMs
			idle += sh.IdleMs
		}
		stats.idleRatio = ratio(idle, active+idle)
	}
	if e.tr != nil {
		if stats.scrape, err = user.MetricsText(ctx); err != nil {
			return section{}, err
		}
	}
	sv.lastBytes = data
	sv.last = stats

	s := section{
		setup:  meter.firstStart().Sub(t0),
		wall:   end.Sub(meter.firstStart()),
		alloc:  after.TotalAlloc - before.TotalAlloc,
		cells:  len(sv.in.cells),
		cellMs: cellMs,
		busy:   time.Duration(meter.busy.Load()),
		peak:   int(meter.sims.peak.Load()),
		http:   int(rt.requests.peak.Load()),
	}
	s.failed, s.notes, s.digest = checkResult(data, sv.in)
	if !status.Finalized {
		s.failed = s.cells
		s.notes = append(s.notes, "served job is not finalized")
	}
	if err := os.RemoveAll(dir); err != nil {
		return section{}, err
	}
	return s, nil
}

func (sv *served) layers(ctx context.Context, e *env, traced []section, m metrics) error {
	process := servedW + " layers"
	m.set("runner.idle_ratio", idleRatio(traced))
	if err := probePass(e.tr, process, sv.in.cells, m); err != nil {
		return err
	}
	if err := bootProbe(e.tr, process, sv.in.distinctSeeds(), m); err != nil {
		return err
	}
	if err := specProbe(e.tr, process, sv.in, m); err != nil {
		return err
	}
	if err := replayProbe(e, process, sv.in, sv.lastBytes, m); err != nil {
		return err
	}

	var plans []time.Duration
	var plan shard.Plan
	for i := 0; i < 20; i++ {
		var err error
		plans = append(plans, e.tr.do(process, "shard", "shard.PlanCells", func() {
			plan, err = shard.PlanCells(sv.in.cells, sv.shards, satin.CheckpointGroupKey)
		}))
		if err != nil {
			return err
		}
	}
	largest := 0
	for _, s := range plan.Shards {
		largest = max(largest, len(s))
	}
	m.set("shard.plan_us", us(durMedian(plans)))
	m.set("shard.imbalance", ratio(float64(largest), float64(plan.Cells())/float64(plan.Count())))

	rt := sv.last.rt
	cells := float64(len(sv.in.cells))
	m.set("serve.submit_ms", ms(durMedian(rt.times("submit"))))
	m.set("serve.lease_ms_p50", ms(durMedian(rt.times("lease"))))
	m.set("serve.progress_ms_p50", ms(durMedian(rt.times("progress"))))
	m.set("serve.upload_ms_p50", ms(durMedian(rt.times("upload"))))
	m.set("serve.result_ms", ms(durMedian(rt.times("result"))))
	m.set("serve.requests_per_cell", float64(rt.count())/cells)
	m.set("serve.merge_ms", sv.last.mergeMs)
	m.set("serve.worker_idle_ratio", sv.last.idleRatio)
	prom := parseProm(sv.last.scrape)
	m.set("serve.leases_granted", prom["satin_leases_granted_total"])
	m.set("serve.leases_expired", prom["satin_leases_expired_total"])
	m.set("serve.stale_rejections", prom["satin_lease_stale_rejections_total"])
	m.set("serve.useful_cell_ratio", ratio(cells, prom["satin_cells_reported_total"]))
	return nil
}

// parseProm sums each metric family's samples in a Prometheus text
// exposition, ignoring labels.
func parseProm(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// meteredTransport wraps the clients' shared transport. It counts the
// requests in flight — a request ends when the client closes its reply
// body — and times each by route; traced, it records each as a span on the
// calling client's track. It leaves reply bodies to the client, so
// connections are reused exactly as the serve client reuses them.
type meteredTransport struct {
	base     http.RoundTripper
	tr       *tracer
	process  string
	requests gauge

	mu  sync.Mutex
	dur map[string][]time.Duration
	n   int
}

type namedTransport struct {
	t    *meteredTransport
	name string
}

func (t *meteredTransport) named(name string) http.RoundTripper { return namedTransport{t, name} }

// route classifies a request by the coordinator's route table.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/campaigns":
		return "submit"
	case p == "/v1/lease":
		return "lease"
	case strings.HasSuffix(p, "/progress"):
		return "progress"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/result"):
		return "upload"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case p == "/metrics":
		return "metrics"
	}
	return "other"
}

func (n namedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	begin := time.Now()
	n.t.requests.inc()
	resp, err := n.t.base.RoundTrip(r)
	if err != nil {
		n.t.done(n.name, r, begin)
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, fn: func() { n.t.done(n.name, r, begin) }}
	return resp, nil
}

func (t *meteredTransport) done(client string, r *http.Request, begin time.Time) {
	end := time.Now()
	t.requests.dec()
	rt := route(r)
	t.mu.Lock()
	if t.dur == nil {
		t.dur = map[string][]time.Duration{}
	}
	t.dur[rt] = append(t.dur[rt], end.Sub(begin))
	if rt != "metrics" {
		t.n++
	}
	t.mu.Unlock()
	t.tr.add(t.process, client, "serve.http."+rt, r.URL.Path, begin, end)
}

// closeHook runs fn once, when the body is first closed.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	fn   func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.fn)
	return err
}

func (t *meteredTransport) times(route string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.dur[route]...)
}

func (t *meteredTransport) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
