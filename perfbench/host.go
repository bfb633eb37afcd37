package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// hostSample is a reading of the Go runtime's cumulative counters.
type hostSample struct {
	allocBytes, allocObjs uint64
	gcCPU, cpu            float64 // seconds
}

var hostMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readHost() hostSample {
	s := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return hostSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		cpu:        s[3].Value.Float64(),
	}
}

func (h hostSample) sub(o hostSample) hostSample {
	return hostSample{h.allocBytes - o.allocBytes, h.allocObjs - o.allocObjs, h.gcCPU - o.gcCPU, h.cpu - o.cpu}
}

func (h *hostSample) add(o hostSample) {
	h.allocBytes += o.allocBytes
	h.allocObjs += o.allocObjs
	h.gcCPU += o.gcCPU
	h.cpu += o.cpu
}

// liveHeap collects garbage and returns the bytes of Go heap the
// collection found live. Sampling the in-use heap instead would depend
// on where the collector happens to be in its cycle.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a percentile's rank
// before it is reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank, 1)-1], true
}
