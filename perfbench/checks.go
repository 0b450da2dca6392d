package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/experiment"
	"repro/internal/stats"
)

// checkPass applies the output checks to every repetition of a pass and
// returns how many repetitions it held and how many failed, with one
// message per failing scenario.
func checkPass(out passOutput) (reps, failed int, problems []string) {
	for _, r := range out.results {
		scenarioOK := inCI(r.AvgCI, stats.Median(r.PerRunAvgUs)) && inCI(r.P99CI, stats.Median(r.PerRunP99Us))
		bad := 0
		for _, m := range r.Runs {
			if !scenarioOK || !runOK(m) {
				bad++
			}
		}
		reps += len(r.Runs)
		failed += bad
		if bad > 0 {
			problems = append(problems, fmt.Sprintf("%s @%.0f: %d of %d repetitions fail the output checks",
				r.Scenario.Label, r.Scenario.RateQPS, bad, len(r.Runs)))
		}
	}
	return reps, failed, problems
}

// inCI reports whether the interval is ordered and brackets the median.
func inCI(iv stats.Interval, median float64) bool {
	return iv.Lower <= median && median <= iv.Upper
}

// runOK checks one repetition's reduced measurements.
func runOK(m experiment.RunMetrics) bool {
	if m.Samples <= 0 || !finite(m.AvgUs) || !finite(m.P99Us) {
		return false
	}
	if res := m.Resilience; res != nil {
		if !(res.Availability >= 0 && res.Availability <= 1) || !(res.RetryAmplification >= 1) {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// digest hashes every simulated statistic of a pass: each scenario's
// per-repetition metrics, including cluster and resilience accounting,
// its confidence intervals, and the rendered figures. Floats print in
// their shortest exact form, so equal digests mean identical outputs.
func digest(out passOutput) string {
	h := sha256.New()
	for _, r := range out.results {
		fmt.Fprintf(h, "scenario %s %v avg=%+v p99=%+v sd=%v\n",
			r.Scenario.Label, r.Scenario.RateQPS, r.AvgCI, r.P99CI, r.StdDevAvgUs)
		for i, m := range r.Runs {
			writeRun(h, i, m)
		}
	}
	h.Write([]byte(out.text))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func writeRun(h hash.Hash, i int, m experiment.RunMetrics) {
	flat := m
	flat.Cluster, flat.Resilience = nil, nil
	fmt.Fprintf(h, "run %d %+v\n", i, flat)
	if m.Cluster != nil {
		fmt.Fprintf(h, " cluster %+v\n", *m.Cluster)
	}
	if m.Resilience != nil {
		fmt.Fprintf(h, " resilience %+v\n", *m.Resilience)
	}
}
