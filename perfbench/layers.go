package main

// cameraCounters are the registry counters the camera-pipeline metrics
// divide by.
var cameraCounters = []string{
	"coralpie_camnode_frames_total",
	"coralpie_camnode_events_total",
	"coralpie_camnode_vertices_total",
	"coralpie_camnode_detections_raw_total",
	"coralpie_camnode_detections_kept_total",
	"coralpie_camnode_reid_matches_total",
	"coralpie_camnode_informs_received_total",
}

// visionAndCamera fills the camera-pipeline metrics: sim rendering,
// detection, SORT, features, re-id and camnode ingest. Layers the
// benchmark calls (the detector it wraps, Render in the live generator)
// are timed by spans; the rest by profile time at their entry points.
func visionAndCamera(l map[string]float64, cpu, alloc *profile, tr *tracer, counts map[string]float64, frames float64) {
	events := counts["coralpie_camnode_events_total"]
	matches := counts["coralpie_camnode_reid_matches_total"]
	if d := tr.durations("sim.render"); len(d) > 0 {
		l["sim.render_us"] = tr.meanUS("sim.render")
	} else {
		l["sim.render_us"] = ratio(cpu.inclusive(entryRender)/1e3, frames)
	}
	l["sim.alloc_kb_per_frame"] = ratio(alloc.inclusive(entryRender)/1024, frames)
	l["vision.detect_us"] = tr.meanUS("vision.detect")
	l["vision.kept_frac"] = ratio(counts["coralpie_camnode_detections_kept_total"], counts["coralpie_camnode_detections_raw_total"])
	l["tracker.update_us"] = ratio(cpu.inclusive(entryTracker)/1e3, frames)
	l["tracker.alloc_kb_per_frame"] = ratio(alloc.inclusive(entryTracker)/1024, frames)
	l["feature.accumulate_us"] = ratio(cpu.inclusive(entryFeature)/1e3, frames)
	l["reid.match_us"] = ratio(cpu.inclusive(entryMatch)/1e3, events)
	l["reid.match_frac"] = ratio(matches, events)
	if informs := counts["coralpie_camnode_informs_received_total"]; informs > 0 {
		l["reid.redundant_frac"] = 1 - matches/informs
	}
	l["camnode.ingest_us"] = ratio(cpu.inclusive(entryIngest)/1e3, frames)
}

// phaseMetrics fills the whole-process metrics of a traced phase and
// reports how its CPU splits across layers.
func phaseMetrics(out *outcome, cpu *profile, start, end usage, frames float64) {
	l := out.layers
	_, _, gcFrac, allocBytes := end.since(start)
	total := float64(cpu.total)
	byLayer := cpu.byLayer()
	l["runtime.gc_cpu_frac"] = gcFrac
	l["runtime.alloc_kb_per_frame"] = ratio(allocBytes/1024, frames)
	l["protocol.json_cpu_frac"] = ratio(cpu.inclusive(prefixesJSON...), total)
	l["obs.cpu_frac"] = ratio(cpu.inclusive(prefixesObs...), total)
	l["trace.unattributed_cpu_frac"] = ratio(byLayer["unattributed"], total)
	out.note("traced CPU %.2fs by owning layer: %s", total/1e9, coverage(byLayer, total))
	if l["trace.unattributed_cpu_frac"] > 0.10 {
		out.note("FLAG: %.1f%% of traced CPU falls outside the named layers, runtime and gen (limit 10%%)",
			100*l["trace.unattributed_cpu_frac"])
	}
}
