package stream

import (
	"sort"

	"decoydb/internal/cluster"
)

// The online half of the paper's adversary grouping (Section 6.1): the
// offline pipeline vectorises full action sequences and Ward-clusters
// them post-hoc; here each source's term-frequency vector is assigned to
// the nearest centroid as its events arrive, new centroids are seeded
// when a vector lands outside every known cluster's radius, and the
// centroid set itself is periodically consolidated by a mini Ward re-fit
// (cluster.Agglomerate over the centroids, cut at the spawn radius) so
// incremental drift cannot fragment one behaviour into many clusters.
// Distances are cluster.SqDist — the same metric the offline
// agglomeration uses — over the same TF definition (count/len), which is
// what makes online and offline assignments agree on stable corpora.

// centroid is one live cluster: a sparse mean vector over the shared
// vocabulary plus membership accounting.
type centroid struct {
	id int
	// terms holds the centroid coordinates as scale*weight: every blend
	// toward a new member multiplies scale by (1-η) instead of rescaling
	// the whole map, so an update costs O(member's distinct actions).
	terms map[int]float64
	scale float64
	norm2 float64 // squared L2 norm of the centroid, maintained incrementally
	// members counts live sources currently assigned; assigns counts
	// lifetime assignment events and drives the blend learning rate.
	members int
	assigns uint64
}

// minEta floors the blend learning rate so a long-lived centroid still
// tracks behavioural drift instead of freezing at its historical mean.
const minEta = 1.0 / 256

// blend moves the centroid toward the sparse TF vector with learning
// rate eta, given dot = centroid·vector (already computed by the
// caller's distance pass).
func (c *centroid) blend(vec []term, vecNorm2, dot, eta float64) {
	c.scale *= 1 - eta
	if c.scale < 1e-9 {
		// Renormalise before the scale underflows.
		for i, t := range c.terms {
			c.terms[i] = t * c.scale
		}
		c.scale = 1
	}
	for _, t := range vec {
		c.terms[t.i] += eta * t.w / c.scale
	}
	c.norm2 = (1-eta)*(1-eta)*c.norm2 + 2*(1-eta)*eta*dot + eta*eta*vecNorm2
}

// assigner owns the vocabulary and the centroid set. It is not
// self-locking: the analyzer drives it under its own mutex.
type assigner struct {
	vocab map[string]int
	names []string // index → action name, for ClusterInfo rendering

	centroids []*centroid
	nextID    int

	refits  uint64
	merged  uint64
	dropped uint64
	capped  uint64
}

func newAssigner() *assigner {
	return &assigner{vocab: make(map[string]int)}
}

// index resolves an action name to its vocabulary index, growing the
// vocabulary up to maxVocab; names beyond the bound share one overflow
// dimension so vector length — and memory — stays bounded however
// creative the traffic gets.
func (a *assigner) index(name string) int {
	if i, ok := a.vocab[name]; ok {
		return i
	}
	if len(a.names) >= maxVocab {
		return maxVocab // shared overflow dimension
	}
	i := len(a.names)
	a.vocab[name] = i
	a.names = append(a.names, name)
	return i
}

// term is one nonzero TF coordinate of the vector being assigned. The
// analyzer snapshots a source's counts map into a reused []term once
// per assignment, so the per-centroid dot products below iterate a
// slice instead of re-walking the map k times.
type term struct {
	i int
	w float64
}

// assign places a source's sparse TF vector — its nonzero terms plus a
// precomputed squared norm, so the hot path never materialises a dense
// vector — with the nearest centroid, seeding a new one when everything
// is farther than the spawn radius. The distance is the
// ||s||² + ||c||² − 2·s·c decomposition of cluster.SqDist with both
// norms precomputed, so each candidate costs only a dot product over
// the source's distinct actions. It returns the cluster id and whether
// a new cluster was created.
func (a *assigner) assign(vec []term, norm2 float64) (id int, isNew bool) {
	best, bestDot, bestD := -1, 0.0, 0.0
	for i, c := range a.centroids {
		var dot float64
		for _, t := range vec {
			if w, ok := c.terms[t.i]; ok {
				dot += w * t.w
			}
		}
		dot *= c.scale
		d := norm2 + c.norm2 - 2*dot
		if best == -1 || d < bestD {
			best, bestDot, bestD = i, dot, d
		}
	}
	radius2 := clusterRadius * clusterRadius
	if best == -1 || bestD > radius2 {
		if len(a.centroids) < maxClusters {
			terms := make(map[int]float64, len(vec))
			for _, t := range vec {
				terms[t.i] = t.w
			}
			c := &centroid{id: a.nextID, terms: terms, scale: 1, norm2: norm2, assigns: 1}
			a.nextID++
			a.centroids = append(a.centroids, c)
			return c.id, true
		}
		// At the cluster cap an outlier still needs a home: the nearest
		// centroid takes it (without blending, so the outlier cannot
		// drag the centroid off its behaviour group).
		a.capped++
		a.centroids[best].assigns++
		return a.centroids[best].id, false
	}
	c := a.centroids[best]
	c.assigns++
	eta := 1 / float64(c.assigns)
	if eta < minEta {
		eta = minEta
	}
	c.blend(vec, norm2, bestDot, eta)
	return c.id, false
}

// byID returns the live centroid with the given cluster id.
func (a *assigner) byID(id int) *centroid {
	for _, c := range a.centroids {
		if c.id == id {
			return c
		}
	}
	return nil
}

// refit consolidates the centroid set with a mini Ward agglomeration:
// centroids whose Ward merge height stays at or below the squared spawn
// radius collapse into one, weighted by live membership. It returns a
// remap of retired cluster ids to their survivors (empty when nothing
// merged); the analyzer rewrites per-source assignments from it.
func (a *assigner) refit() map[int]int {
	a.refits++
	// Garbage-collect empty centroids first: members is maintained on
	// every assignment, migration and eviction, so members == 0 means no
	// live source references the cluster — it is a stale seed left
	// behind by a partial early vector, not a behaviour group.
	live := a.centroids[:0]
	for _, c := range a.centroids {
		if c.members > 0 {
			live = append(live, c)
		} else {
			a.dropped++
		}
	}
	a.centroids = live
	if len(a.centroids) < 2 {
		return nil
	}
	vecs := make([]cluster.Vector, len(a.centroids))
	for i, c := range a.centroids {
		v := make(cluster.Vector, len(a.names)+1)
		for j, t := range c.terms {
			if j < len(v) {
				v[j] = t * c.scale
			}
		}
		vecs[i] = v
	}
	dg := cluster.Ward(vecs)
	labels := dg.Cut(clusterRadius * clusterRadius)

	groups := make(map[int][]*centroid)
	for i, l := range labels {
		groups[l] = append(groups[l], a.centroids[i])
	}
	if len(groups) == len(a.centroids) {
		return nil
	}
	remap := make(map[int]int)
	var kept []*centroid
	// Deterministic order: groups by their first centroid's id.
	order := make([]int, 0, len(groups))
	for l := range groups {
		order = append(order, l)
	}
	sort.Slice(order, func(i, j int) bool { return groups[order[i]][0].id < groups[order[j]][0].id })
	for _, l := range order {
		g := groups[l]
		if len(g) == 1 {
			kept = append(kept, g[0])
			continue
		}
		// The heaviest member keeps its id, so long-lived clusters stay
		// addressable across refits; ties break to the oldest.
		sort.Slice(g, func(i, j int) bool {
			if g[i].members != g[j].members {
				return g[i].members > g[j].members
			}
			return g[i].id < g[j].id
		})
		merged := a.merge(g)
		kept = append(kept, merged)
		for _, c := range g[1:] {
			remap[c.id] = merged.id
			a.merged++
		}
	}
	a.centroids = kept
	return remap
}

// merge folds a group of centroids into the first one, weighted by live
// membership (assignment counts stand in when a group is all-evicted).
func (a *assigner) merge(g []*centroid) *centroid {
	var totalW float64
	weight := func(c *centroid) float64 {
		if c.members > 0 {
			return float64(c.members)
		}
		return 1
	}
	for _, c := range g {
		totalW += weight(c)
	}
	terms := make(map[int]float64)
	members := 0
	var assigns uint64
	for _, c := range g {
		w := weight(c) / totalW
		for i, t := range c.terms {
			terms[i] += w * t * c.scale
		}
		members += c.members
		assigns += c.assigns
	}
	var norm2 float64
	for _, t := range terms {
		norm2 += t * t
	}
	out := g[0]
	out.terms, out.scale, out.norm2 = terms, 1, norm2
	out.members, out.assigns = members, assigns
	return out
}

// topActions returns the centroid's k highest-weight action names.
func (a *assigner) topActions(c *centroid, k int) []string {
	type tw struct {
		i int
		w float64
	}
	all := make([]tw, 0, len(c.terms))
	for i, t := range c.terms {
		if i < len(a.names) && t != 0 {
			all = append(all, tw{i, t * c.scale})
		}
	}
	sort.Slice(all, func(x, y int) bool {
		if all[x].w != all[y].w {
			return all[x].w > all[y].w
		}
		return all[x].i < all[y].i
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]string, len(all))
	for i, t := range all {
		out[i] = a.names[t.i]
	}
	return out
}
