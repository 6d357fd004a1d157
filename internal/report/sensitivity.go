package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// maxHeadlines bounds how many headline metrics get a figure per knob —
// experiments recording many explicit metrics would otherwise multiply
// the figure count without adding narrative.
const maxHeadlines = 4

// sensitivity carries one generation's knob-sweep layer: the grids that
// were run, the aggregated view of every grid scenario, and the
// per-experiment stability verdicts derived from them.
type sensitivity struct {
	gridPoints int
	// knobs maps experiment id -> its swept knob names, sorted.
	knobs map[string][]string
	// grids maps knob name -> swept values (deduplicated, in submission
	// order — ascending for the default grids).
	grids map[string][]float64
	// requires maps knob name -> companion assignments merged into every
	// scenario of that knob's grid.
	requires map[string]map[string]float64
	// defaults maps knob name -> spec default, the baseline x position.
	defaults map[string]float64
	// hasDefault marks knobs whose grid includes the default value, so
	// figures skip the duplicate baseline injection at that x.
	hasDefault map[string]bool
	// views indexes the aggregated grid scenarios by harness.ScenarioKey.
	views map[string]harness.GroupView
	// scenarios counts the distinct grid scenarios run.
	scenarios int
	// runErrors counts individual errored replications in the sweep.
	runErrors int
	// stability accumulates per-experiment verdict stability while pages
	// render, then feeds the matrix column (pages render first).
	stability map[string]*expStability
}

// expStability is one experiment's verdict-stability summary.
type expStability struct {
	swept  int // knobs swept
	points int // grid scenarios with at least one completed run
	errors int // grid scenarios where every replication errored
	// flips maps check name -> knob=value labels whose majority vote
	// differs from the baseline, in knob-then-value order.
	flips map[string][]string
	// fragile lists knob names with at least one flip, sorted.
	fragile []string
}

func (st *expStability) fragileLabel() string {
	switch {
	case st == nil || st.swept == 0:
		return "—"
	case st.points == 0:
		return "ERROR"
	case len(st.fragile) == 0:
		return "stable"
	default:
		return "fragile (" + strings.Join(st.fragile, ", ") + ")"
	}
}

// buildSensitivity resolves the grid spec for the selected experiments:
// the caller-supplied Options.Grids, or the default KnobSpec grids at
// the generation's scale. Knobs not owned by a selected experiment are
// dropped; duplicate grid values are deduplicated (they would aggregate
// into one group and double-count every seed).
func buildSensitivity(exps []core.Experiment, scale float64, opts Options) *sensitivity {
	points := opts.GridPoints
	if points < 1 {
		points = experiments.DefaultGridPoints
	}
	grids := opts.Grids
	if grids == nil {
		grids = experiments.SensitivityGrids(points, scale)
	}
	specs := experiments.KnobSpecs()
	s := &sensitivity{
		gridPoints: points,
		knobs:      make(map[string][]string, len(exps)),
		grids:      make(map[string][]float64, len(grids)),
		requires:   make(map[string]map[string]float64),
		defaults:   make(map[string]float64),
		hasDefault: make(map[string]bool),
		stability:  make(map[string]*expStability, len(exps)),
	}
	names := make([]string, 0, len(grids))
	for name := range grids {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, e := range exps {
		for _, name := range names {
			if !harness.KnobAppliesTo(name, e.ID()) {
				continue
			}
			var vals []float64
			seen := make(map[float64]bool, len(grids[name]))
			for _, v := range grids[name] {
				if seen[v] {
					continue
				}
				seen[v] = true
				vals = append(vals, v)
			}
			if len(vals) == 0 {
				continue
			}
			s.knobs[e.ID()] = append(s.knobs[e.ID()], name)
			s.grids[name] = vals
			if spec, ok := specs[name]; ok {
				s.defaults[name] = spec.Default
				s.hasDefault[name] = seen[spec.Default]
				if len(spec.Requires) > 0 {
					s.requires[name] = spec.Requires
				}
			}
			s.scenarios += len(vals)
		}
	}
	// Caller-supplied grids are not bounded by GridPoints; report the
	// real maximum so the page text and manifest describe what ran.
	if opts.Grids != nil {
		s.gridPoints = 0
		for _, vals := range s.grids {
			if len(vals) > s.gridPoints {
				s.gridPoints = len(vals)
			}
		}
	}
	return s
}

// params builds the scenario assignment for one grid point: the swept
// knob plus its companions.
func (s *sensitivity) params(knob string, v float64) map[string]float64 {
	p := map[string]float64{knob: v}
	for rn, rv := range s.requires[knob] {
		p[rn] = rv
	}
	return p
}

// jobs expands the grids into the deterministic sweep job list:
// experiments in page order, knobs sorted, values in grid order, seeds
// innermost — mirroring harness.Sweep expansion so aggregate groups come
// out in render order.
func (s *sensitivity) jobs(exps []core.Experiment, seeds []int64, scale float64) []harness.Job {
	var jobs []harness.Job
	for _, e := range exps {
		for _, knob := range s.knobs[e.ID()] {
			for _, v := range s.grids[knob] {
				for _, seed := range seeds {
					jobs = append(jobs, harness.Job{
						ExperimentID: e.ID(),
						Config: core.Config{
							Seed:   seed,
							Scale:  scale,
							Params: s.params(knob, v),
						},
					})
				}
			}
		}
	}
	return jobs
}

// view returns the aggregated group for one grid point, if it ran.
func (s *sensitivity) view(id, knob string, v float64, scale float64) (harness.GroupView, bool) {
	gv, ok := s.views[harness.ScenarioKey(id, scale, s.params(knob, v))]
	return gv, ok
}

// sweptKnobs returns every swept knob name across all experiments,
// sorted — the manifest's grid index.
func (s *sensitivity) sweptKnobs() []string {
	names := make([]string, 0, len(s.grids))
	for name := range s.grids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// fmtKnobValue renders a grid value exactly as harness.ParamLabel does,
// so table rows and flip labels match the scenario labels in exports.
func fmtKnobValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sensHeadlines picks the metrics that get a metric-vs-knob figure: the
// experiment's explicit full-precision metrics (core.Result.AddMetric),
// capped at maxHeadlines. explicit is false when the experiment records
// none — the caller then selects a knob-responsive table-derived metric
// per knob instead.
func sensHeadlines(baseline harness.GroupView) (names []string, explicit bool) {
	if baseline.Representative != nil {
		seen := make(map[string]bool)
		for _, m := range baseline.Representative.Metrics {
			if len(names) >= maxHeadlines {
				break
			}
			if seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			names = append(names, m.Name)
		}
	}
	if len(names) > 0 {
		return names, true
	}
	if m, ok := baseline.Headline(); ok {
		return []string{m.Name}, false
	}
	return nil, false
}

// knobResponsiveMetric picks the table-derived metric to plot against one
// knob: the first baseline metric (in aggregation order) that a grid
// view carries with a mean differing from the baseline's or varying
// across the grid — cross-seed variance says nothing about knob
// response, so a flat-but-present metric must not shadow the one the
// knob actually moves. ok is false when no baseline metric responds
// (e.g. the metric names themselves embed the swept knob's value).
func knobResponsiveMetric(baseline harness.GroupView, views []harness.GroupView) (string, bool) {
	for _, bm := range baseline.Metrics {
		responds := false
		for _, v := range views {
			m, ok := metricAgg(v, bm.Name)
			if !ok {
				continue
			}
			if m.Mean != bm.Mean {
				responds = true
				break
			}
		}
		if responds {
			return bm.Name, true
		}
	}
	// Nothing responds: a present-but-flat metric still makes an honest
	// (insensitive) figure, so fall back to the first one a grid view
	// carries at all.
	for _, bm := range baseline.Metrics {
		for _, v := range views {
			if _, ok := metricAgg(v, bm.Name); ok {
				return bm.Name, true
			}
		}
	}
	return "", false
}

// metricAgg finds one named aggregated metric in a group view.
func metricAgg(v harness.GroupView, name string) (harness.MetricAgg, bool) {
	for _, m := range v.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return harness.MetricAgg{}, false
}

// checkAgg finds one named check vote in a group view.
func checkAgg(v harness.GroupView, name string) (harness.CheckAgg, bool) {
	for _, c := range v.Checks {
		if c.Name == name {
			return c, true
		}
	}
	return harness.CheckAgg{}, false
}

// renderSensitivitySection renders one experiment's sensitivity layer:
// per-knob metric-vs-knob figures with ±95% CI bands, per-knob verdict
// tables, and the experiment's verdict-stability table. It records the
// experiment's stability summary on sens for the matrix column.
func renderSensitivitySection(e core.Experiment, baseline *harness.GroupView, sens *sensitivity, gen genContext) (string, []File) {
	knobs := sens.knobs[e.ID()]
	st := &expStability{swept: len(knobs), flips: make(map[string][]string)}
	sens.stability[e.ID()] = st
	if len(knobs) == 0 {
		return "", nil
	}
	specs := experiments.KnobSpecs()

	var b strings.Builder
	var figures []File
	b.WriteString("## Sensitivity\n\n")
	fmt.Fprintf(&b, "Each registered knob swept over up to %d grid values (floor → default → stretch; see DESIGN.md) × seeds {%s} at scale %.4g. ",
		sens.gridPoints, gen.seedsLabel(), gen.scale)
	b.WriteString("Figures plot each headline metric's cross-seed mean with a shaded ±95% CI band; the baseline (default) point reuses the replications above. The stability table lists the knob values that flip a check's majority vote.\n\n")

	var headlines []string
	explicitHeadlines := false
	if baseline != nil {
		headlines, explicitHeadlines = sensHeadlines(*baseline)
	}

	fragile := make(map[string]bool)
	for _, knob := range knobs {
		fmt.Fprintf(&b, "### `%s`\n\n", knob)
		if spec, ok := specs[knob]; ok {
			fmt.Fprintf(&b, "%s\n\n", mdCell(spec.Desc))
		}
		if req := sens.requires[knob]; len(req) > 0 {
			b.WriteString("Every grid point of this knob also sets " + mdCell(harness.ParamLabel(req)) + "; its verdicts are compared against the unmodified baseline.\n\n")
		}

		// Collect the knob's grid points that actually aggregated.
		type gridPoint struct {
			value float64
			view  harness.GroupView
		}
		var pts []gridPoint
		for _, v := range sens.grids[knob] {
			gv, ok := sens.view(e.ID(), knob, v, gen.scale)
			if !ok {
				continue
			}
			pts = append(pts, gridPoint{value: v, view: gv})
		}
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].value < pts[j].value })

		// Figures: one per headline metric, points in ascending knob order,
		// baseline injected at the default unless the grid covers it.
		// Experiments without explicit metrics plot the table-derived
		// metric this knob actually moves (cross-seed variance says
		// nothing about knob response). A metric no grid point carries
		// (table-derived names can embed the swept knob's value, e.g.
		// E08's "(6s propagation)" table title) would render a misleading
		// baseline-only plot — emit a note instead; the verdict table
		// below still covers the knob.
		knobMetrics := headlines
		if !explicitHeadlines && baseline != nil && len(pts) > 0 {
			gridViews := make([]harness.GroupView, 0, len(pts))
			for _, p := range pts {
				gridViews = append(gridViews, p.view)
			}
			if name, ok := knobResponsiveMetric(*baseline, gridViews); ok {
				knobMetrics = []string{name}
			}
		}
		for mi, metric := range knobMetrics {
			fig := &sensFigure{metric: metric, knob: knob}
			gridPts, votedPts := 0, 0
			for _, p := range pts {
				if voted := p.view.Replications - len(p.view.Errors); voted == 0 {
					continue
				}
				votedPts++
				if m, ok := metricAgg(p.view, metric); ok {
					fig.add(p.value, m)
					gridPts++
				}
			}
			if gridPts == 0 {
				if votedPts == 0 {
					fmt.Fprintf(&b, "_No figure: every grid replication of this knob errored; see the verdict table below._\n\n")
				} else {
					fmt.Fprintf(&b, "_No `%s` series across this knob's grid — the metric's name varies with the knob value; see the verdict table below._\n\n", mdCell(metric))
				}
				continue
			}
			if baseline != nil && !sens.hasDefault[knob] {
				if def, ok := sens.defaults[knob]; ok {
					if m, ok := metricAgg(*baseline, metric); ok {
						fig.addBaseline(def, m)
					}
				}
			}
			path := fmt.Sprintf("figures/%s-sens-%s-%d.svg", e.ID(), knob, mi+1)
			figures = append(figures, File{Path: path, Data: []byte(fig.svg())})
			fmt.Fprintf(&b, "![%s](../%s)\n\n", mdCell(metric+" vs "+knob), path)
		}

		// Per-knob verdict table: every grid value plus the baseline row,
		// ascending by value (baseline after a same-valued grid row).
		type row struct {
			value    float64
			baseline bool
			cells    string
		}
		var rows []row
		for _, p := range pts {
			voted := p.view.Replications - len(p.view.Errors)
			passes := 0
			for _, c := range p.view.Checks {
				if c.Verdict {
					passes++
				}
			}
			verdict := "NOT REPRODUCED"
			if p.view.Reproduced {
				verdict = "REPRODUCED"
			}
			if voted == 0 {
				verdict = "ERROR"
				st.errors++
				rows = append(rows, row{value: p.value,
					cells: fmt.Sprintf("| %s | — | ERROR |", fmtKnobValue(p.value))})
				continue
			}
			st.points++
			rows = append(rows, row{value: p.value,
				cells: fmt.Sprintf("| %s | %d/%d | %s |", fmtKnobValue(p.value), passes, len(p.view.Checks), verdict)})
		}
		if baseline != nil {
			if def, ok := sens.defaults[knob]; ok {
				passes := 0
				for _, c := range baseline.Checks {
					if c.Verdict {
						passes++
					}
				}
				verdict := "NOT REPRODUCED"
				if baseline.Reproduced {
					verdict = "REPRODUCED"
				}
				rows = append(rows, row{value: def, baseline: true,
					cells: fmt.Sprintf("| %s (baseline) | %d/%d | %s |", fmtKnobValue(def), passes, len(baseline.Checks), verdict)})
			}
		}
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].value != rows[j].value {
				return rows[i].value < rows[j].value
			}
			return !rows[i].baseline && rows[j].baseline
		})
		if len(rows) > 0 {
			fmt.Fprintf(&b, "| `%s` | Checks (majority-pass) | Verdict |\n|---|---|---|\n", knob)
			for _, r := range rows {
				b.WriteString(r.cells + "\n")
			}
			b.WriteString("\n")
		}

		// Flip detection against the baseline votes.
		if baseline != nil {
			for _, bc := range baseline.Checks {
				for _, p := range pts {
					if p.view.Replications-len(p.view.Errors) == 0 {
						continue
					}
					if c, ok := checkAgg(p.view, bc.Name); ok && c.Verdict != bc.Verdict {
						label := knob + "=" + fmtKnobValue(p.value)
						st.flips[bc.Name] = append(st.flips[bc.Name], label)
						fragile[knob] = true
					}
				}
			}
		}
	}

	st.fragile = make([]string, 0, len(fragile))
	for knob := range fragile {
		st.fragile = append(st.fragile, knob)
	}
	sort.Strings(st.fragile)

	// The experiment-level stability table: every baseline check with the
	// knob values that flip its majority vote.
	b.WriteString("### Verdict stability\n\n")
	if baseline == nil || len(baseline.Checks) == 0 {
		b.WriteString("_No baseline checks to compare against._\n\n")
		return b.String(), figures
	}
	totalFlips := 0
	b.WriteString("| Check | Baseline | Flips at |\n|---|---|---|\n")
	for _, bc := range baseline.Checks {
		vote := "FAIL"
		if bc.Verdict {
			vote = "PASS"
		}
		at := "—"
		if fl := st.flips[bc.Name]; len(fl) > 0 {
			at = strings.Join(fl, ", ")
			totalFlips += len(fl)
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", mdCell(bc.Name), vote, mdCell(at))
	}
	switch {
	case st.points == 0:
		// Matches the matrix's ERROR cell: zero completed grid runs is
		// absence of evidence, not stability.
		b.WriteString("\n**Stability: no completed grid runs** — every swept scenario errored.\n\n")
	case totalFlips == 0:
		fmt.Fprintf(&b, "\n**Stability: stable** — every check keeps its baseline majority vote across all %d completed grid points.\n\n", st.points)
	default:
		fmt.Fprintf(&b, "\n**Stability: fragile** — %d flip(s) across %s.\n\n",
			totalFlips, strings.Join(st.fragile, ", "))
	}
	return b.String(), figures
}

// sensFigure accumulates one metric-vs-knob figure: the grid means with
// their ±95% CI envelope, plus the baseline (default) marker point.
type sensFigure struct {
	metric string
	knob   string
	points []sensPoint
}

type sensPoint struct {
	x        float64
	m        harness.MetricAgg
	baseline bool
}

func (f *sensFigure) add(x float64, m harness.MetricAgg) {
	f.points = append(f.points, sensPoint{x: x, m: m})
}

func (f *sensFigure) addBaseline(x float64, m harness.MetricAgg) {
	f.points = append(f.points, sensPoint{x: x, m: m, baseline: true})
}

// svg renders the figure: the "mean" polyline over every point (grid and
// baseline alike, ascending x) wrapped in its mean±CI band, with the
// baseline point repeated as its own marker series.
func (f *sensFigure) svg() string {
	sort.SliceStable(f.points, func(i, j int) bool { return f.points[i].x < f.points[j].x })
	fig := &metrics.Figure{
		Title:  f.metric + " vs " + f.knob,
		XLabel: f.knob,
		YLabel: f.metric,
	}
	for _, p := range f.points {
		fig.Add("mean", p.x, p.m.Mean)
		fig.AddBand("mean", p.x, p.m.Mean-p.m.CI95, p.m.Mean+p.m.CI95)
	}
	for _, p := range f.points {
		if p.baseline {
			fig.Add("default", p.x, p.m.Mean)
		}
	}
	return fig.SVG(figureW, figureH)
}
