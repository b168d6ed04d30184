package main

import (
	"math"
	"net/netip"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pairing is the i-th "from" stamp of one source address:port matched
// with the i-th "to" stamp of the same address:port.
type pairing struct {
	src      netip.AddrPort
	ref      int   // the from stamp's ref
	from, to int64 // probe times
}

// pairInOrder matches stamps of the same Close event at two points of the
// capture path. Sessions from one source address:port never overlap, and
// every layer keeps one source's events in order, so the i-th stamp of a
// source at one point belongs to the same session as its i-th stamp at
// the next. It returns the matched pairs and the from stamps left over.
func pairInOrder(from, to []stamp) (pairs []pairing, unmatched []stamp) {
	group := func(st []stamp) map[netip.AddrPort][]stamp {
		m := map[netip.AddrPort][]stamp{}
		for _, s := range st {
			m[s.src] = append(m[s.src], s)
		}
		for _, g := range m {
			sort.SliceStable(g, func(i, j int) bool { return g[i].at < g[j].at })
		}
		return m
	}
	tos := group(to)
	for src, fs := range group(from) {
		ts := tos[src]
		for i, f := range fs {
			if i < len(ts) {
				pairs = append(pairs, pairing{src: src, ref: f.ref, from: f.at, to: ts[i].at})
			} else {
				unmatched = append(unmatched, f)
			}
		}
	}
	return pairs, unmatched
}
