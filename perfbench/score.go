package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/trajstore"
)

// gVertex and gEdge are the parts of the trajectory graph the scorer
// reads.
type gVertex struct {
	id     int64
	camera string
	truth  string
	at     time.Time
	event  string
}

type gEdge struct {
	from, to int64
	weight   float64
}

// readGraph copies a store's whole trajectory graph.
func readGraph(st *trajstore.Store) ([]gVertex, []gEdge, error) {
	sn := st.Snapshot()
	var vs []gVertex
	var es []gEdge
	for id := int64(1); id <= sn.MaxVertexID(); id++ {
		v, err := sn.Vertex(id)
		if err != nil {
			continue
		}
		vs = append(vs, gVertex{id: v.ID, camera: v.Event.CameraID, truth: v.Event.TruthID,
			at: v.Event.Timestamp, event: string(v.Event.ID)})
		out, err := sn.OutEdges(id)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range out {
			es = append(es, gEdge{from: e.From, to: e.To, weight: e.Weight})
		}
	}
	return vs, es, nil
}

// handoffScore is a trajectory graph scored against ground truth.
type handoffScore struct {
	edges, truePos int // edges, and edges linking one vehicle's sightings
	transitions    int // true camera-to-camera handoffs
	found          int // true handoffs with an edge
}

func (s handoffScore) precision() float64 { return ratio(float64(s.truePos), float64(s.edges)) }
func (s handoffScore) recall() float64    { return ratio(float64(s.found), float64(s.transitions)) }

// scoreHandoffs scores the graph against the vertices' TruthIDs. An
// edge is a true positive when both ends carry the same non-empty
// TruthID. The true handoffs are, per vehicle, the consecutive pairs of
// visits (runs of same-camera sightings in time order) on different
// cameras; one is found when an edge links any sighting of the first
// visit to any sighting of the second.
func scoreHandoffs(vs []gVertex, es []gEdge) handoffScore {
	byID := make(map[int64]gVertex, len(vs))
	byTruth := map[string][]gVertex{}
	for _, v := range vs {
		byID[v.id] = v
		if v.truth != "" {
			byTruth[v.truth] = append(byTruth[v.truth], v)
		}
	}
	type link struct{ from, to int64 }
	linked := make(map[link]bool, len(es))
	var s handoffScore
	for _, e := range es {
		s.edges++
		a, b := byID[e.from], byID[e.to]
		if a.truth != "" && a.truth == b.truth {
			s.truePos++
		}
		linked[link{e.from, e.to}] = true
	}
	truths := make([]string, 0, len(byTruth))
	for t := range byTruth {
		truths = append(truths, t)
	}
	sort.Strings(truths)
	for _, t := range truths {
		sightings := byTruth[t]
		sort.Slice(sightings, func(i, j int) bool {
			if !sightings[i].at.Equal(sightings[j].at) {
				return sightings[i].at.Before(sightings[j].at)
			}
			return sightings[i].id < sightings[j].id
		})
		var visits [][]gVertex
		for _, v := range sightings {
			if n := len(visits); n > 0 && visits[n-1][0].camera == v.camera {
				visits[n-1] = append(visits[n-1], v)
				continue
			}
			visits = append(visits, []gVertex{v})
		}
		for i := 0; i+1 < len(visits); i++ {
			s.transitions++
		pairs:
			for _, a := range visits[i] {
				for _, b := range visits[i+1] {
					if linked[link{a.id, b.id}] {
						s.found++
						break pairs
					}
				}
			}
		}
	}
	return s
}

// graphDigest fingerprints a trajectory graph: equal graphs, equal
// digests. Same-seed DES runs must agree.
func graphDigest(vs []gVertex, es []gEdge) string {
	h := sha256.New()
	sorted := append([]gVertex(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	for _, v := range sorted {
		fmt.Fprintf(h, "v %d %s %s %d %s\n", v.id, v.camera, v.truth, v.at.UnixNano(), v.event)
	}
	edges := append([]gEdge(nil), es...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(h, "e %d %d %x\n", e.from, e.to, math.Float64bits(e.weight))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkScorer scores a hand-built graph with known outcomes.
func checkScorer() error {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	vs := []gVertex{
		// Vehicle a: cam0 (two fragments), cam1, cam2.
		{id: 1, camera: "cam0", truth: "a", at: at(0)},
		{id: 2, camera: "cam0", truth: "a", at: at(1)},
		{id: 3, camera: "cam1", truth: "a", at: at(10)},
		{id: 4, camera: "cam2", truth: "a", at: at(20)},
		// Vehicle b: cam0, cam1.
		{id: 5, camera: "cam0", truth: "b", at: at(2)},
		{id: 6, camera: "cam1", truth: "b", at: at(12)},
		// A false detection with no ground truth.
		{id: 7, camera: "cam1", at: at(13)},
	}
	es := []gEdge{
		{from: 2, to: 3}, // a cam0->cam1: true positive, found
		{from: 5, to: 6}, // b cam0->cam1: true positive, found
		{from: 1, to: 6}, // a->b: false positive
		{from: 5, to: 7}, // b->no truth: false positive
		// a cam1->cam2 is missed.
	}
	s := scoreHandoffs(vs, es)
	want := handoffScore{edges: 4, truePos: 2, transitions: 3, found: 2}
	if s != want {
		return fmt.Errorf("scorer: got %+v, want %+v", s, want)
	}
	if d1, d2 := graphDigest(vs, es), graphDigest(vs, es[:3]); d1 == d2 {
		return fmt.Errorf("scorer: digest ignores a removed edge")
	}
	return nil
}

// checkStats tests the quantile helpers on known inputs.
func checkStats() error {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		return fmt.Errorf("stats: median %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		return fmt.Errorf("stats: q1 %v, want 2", got)
	}
	if got := tailQuantile(200, 0.9); got != 0.9 {
		return fmt.Errorf("stats: tail quantile of 200 is %v, want 0.9", got)
	}
	if got := tailQuantile(50, 0.9); math.Abs(got-0.8) > 1e-9 {
		return fmt.Errorf("stats: tail quantile of 50 is %v, want 0.8", got)
	}
	// Two full windows with median 9.5, and a third too sparse to count.
	var xs2, at []float64
	for i := 0; i < 40; i++ {
		xs2 = append(xs2, float64(i%20))
		at = append(at, float64(i/20)+0.5)
	}
	for i := 0; i < 5; i++ {
		xs2 = append(xs2, 1000)
		at = append(at, 2.5)
	}
	if got := windowedQuantile(xs2, at, 3, 3, 0.5); got != 9.5 {
		return fmt.Errorf("stats: windowed median %v, want 9.5", got)
	}
	h := histogram{upper: []float64{1, 2, 4}, count: []uint64{0, 10, 10, 0}, total: 20}
	if got := h.quantile(0.5); got != 2 {
		return fmt.Errorf("stats: histogram median %v, want 2", got)
	}
	if got := h.quantile(0.75); got != 3 {
		return fmt.Errorf("stats: histogram q3 %v, want 3", got)
	}
	if got := h.countAbove(2); got != 10 {
		return fmt.Errorf("stats: count above 2 is %v, want 10", got)
	}
	return nil
}

// selfTest runs the benchmark's own checks before every run.
func selfTest() error {
	for _, check := range []func() error{checkScorer, checkStats, checkWrappers, checkBehind} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}
