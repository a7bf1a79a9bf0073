package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// meter measures the process under test over one timed window: wall clock,
// user+system CPU, allocation counters and peak resident memory.
type meter struct {
	pid   int
	mem   func() (memStats, error)
	fresh bool // the process started for this run, so its VmHWM is this run's peak

	start time.Time
	cpu0  time.Duration
	mem0  memStats

	stop    chan struct{}
	wg      sync.WaitGroup
	peakRSS int64
	cpu     []cpuPoint // sampled every 25 ms, for per-slice CPU
}

// cpuPoint is the process's cumulative CPU (since the window began) at an
// offset into the window.
type cpuPoint struct{ At, CPU time.Duration }

// windowStats is what the meter saw between start and finish.
type windowStats struct {
	Wall      time.Duration
	CPU       time.Duration
	Before    memStats
	After     memStats
	PeakRSSKB int64
	cpu       []cpuPoint
}

// cpuAt is the CPU the process had used by the offset, from the nearest
// sample at or before it.
func (ws *windowStats) cpuAt(at time.Duration) time.Duration {
	i := sort.Search(len(ws.cpu), func(i int) bool { return ws.cpu[i].At > at })
	if i == 0 {
		return 0
	}
	return ws.cpu[i-1].CPU
}

func ownMemStats() (memStats, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{
		Mallocs: m.Mallocs, TotalAlloc: m.TotalAlloc, NumGC: uint64(m.NumGC),
		HeapAlloc: m.HeapAlloc, PauseTotalNs: m.PauseTotalNs,
	}, nil
}

// startMeter begins a window on the harness itself (pid 0) or on a child.
// Resident memory is sampled every 25 ms from /proc; where /proc is
// missing, CPU and RSS read as zero (the time and allocation metrics stay).
func startMeter(pid int, mem func() (memStats, error), fresh bool) (*meter, error) {
	if pid == 0 {
		pid = os.Getpid()
	}
	m := &meter{pid: pid, mem: mem, fresh: fresh, stop: make(chan struct{})}
	var err error
	if m.mem0, err = mem(); err != nil {
		return nil, fmt.Errorf("reading MemStats: %w", err)
	}
	if u, err := procUsage(pid); err == nil {
		m.cpu0 = u.CPU
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if u, err := procUsage(pid); err == nil {
					m.peakRSS = max(m.peakRSS, u.RSSKB)
					m.cpu = append(m.cpu, cpuPoint{time.Since(m.start), u.CPU - m.cpu0})
				}
			}
		}
	}()
	m.start = time.Now()
	return m, nil
}

func (m *meter) finish() (windowStats, error) {
	ws := windowStats{Wall: time.Since(m.start), Before: m.mem0}
	u, uerr := procUsage(m.pid)
	close(m.stop)
	m.wg.Wait()
	ws.cpu = m.cpu
	if uerr == nil {
		ws.CPU = u.CPU - m.cpu0
		ws.cpu = append(ws.cpu, cpuPoint{ws.Wall, ws.CPU})
		ws.PeakRSSKB = max(m.peakRSS, u.RSSKB)
		if m.fresh {
			ws.PeakRSSKB = max(ws.PeakRSSKB, u.HWMKB)
		}
	}
	var err error
	if ws.After, err = m.mem(); err != nil {
		return ws, fmt.Errorf("reading MemStats: %w", err)
	}
	return ws, nil
}

// sample is one completed search: when it completed (offset into the
// window) and the latency its caller observed.
type sample struct{ At, Lat time.Duration }

// slices is how many equal parts a window is cut into for the time-based
// metrics.
const slices = 6

// evenEdges cuts the window into equal slices.
func evenEdges(window time.Duration) []time.Duration {
	edges := make([]time.Duration, slices+1)
	for i := range edges {
		edges[i] = window * time.Duration(i) / slices
	}
	return edges
}

// endToEndMetrics turns a window into the end-to-end metrics.
//
// The time-based ones (median latency, throughput, CPU per operation)
// are computed per slice of the window — edges[i]..edges[i+1] — and reported
// as the median over the slices: the sandbox's two cores are shared, and a
// neighbour's burst or one long collection moves a whole-window figure by
// several percent but only one slice's. The count-based ones (allocations,
// peak memory) cover the whole window. others are the completion offsets of
// operations that are not searches (appends); they count for CPU per
// operation and allocations per operation.
func endToEndMetrics(setup time.Duration, searches []sample, others []time.Duration, edges []time.Duration, ws windowStats) (map[string]float64, map[string]int) {
	var p50s, thrs, cpus []float64
	for i := 0; i+1 < len(edges); i++ {
		lo, hi := edges[i], edges[i+1]
		var lat latencies
		for _, s := range searches {
			if s.At > lo && s.At <= hi {
				lat = append(lat, s.Lat)
			}
		}
		if len(lat) == 0 {
			continue
		}
		ops := len(lat)
		for _, at := range others {
			if at > lo && at <= hi {
				ops++
			}
		}
		ms := lat.sortedMS()
		p50s = append(p50s, quantile(ms, 0.50))
		thrs = append(thrs, float64(len(lat))/(hi-lo).Seconds())
		cpus = append(cpus, float64(ws.cpuAt(hi)-ws.cpuAt(lo))/float64(time.Millisecond)/float64(ops))
	}
	n := float64(max(len(searches)+len(others), 1))
	e2e := map[string]float64{
		"setup_s":          setup.Seconds(),
		"search_p50_ms":    median(p50s),
		"throughput_ops_s": median(thrs),
		"cpu_ms_per_op":    median(cpus),
		"peak_rss_mb":      float64(ws.PeakRSSKB) / 1024,
		"allocs_per_op":    float64(ws.After.Mallocs-ws.Before.Mallocs) / n,
		"alloc_kb_per_op":  float64(ws.After.TotalAlloc-ws.Before.TotalAlloc) / 1024 / n,
	}
	per := len(searches) / max(len(p50s), 1)
	return e2e, map[string]int{"search_p50_ms": per}
}
