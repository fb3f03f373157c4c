package perfuzz

// Delta-debugging shrinker: reduce a degradation-inducing schedule to
// a minimal reproducer that still triggers the same degradation
// class. The algorithm is greedy ddmin — chunk removal at halving
// granularity, then single-gene removal to a fixpoint, then a
// gap-zeroing pass — re-validating the candidate's degradation class
// after every removal. Because Harness.Eval is a pure function of
// (seed, genome), each validation replays the schedule from scratch,
// so the surviving reproducer is 1-minimal under gene removal within
// the evaluation budget.

// ShrinkStats reports the shrink loop's work.
type ShrinkStats struct {
	// Steps is how many candidate removals were accepted.
	Steps int `json:"steps"`
	// Evals is how many harness evaluations the shrink spent.
	Evals int `json:"evals"`
}

// Shrink delta-debugs genome g down to a minimal schedule whose
// evaluation still reports class. It returns the shrunk genome, its
// evaluation, and shrink statistics. The result is never longer than
// the input, and always still triggers class (at worst the input is
// returned unchanged). budget caps harness evaluations; 0 means the
// default of 400.
func Shrink(g Genome, class string, h *Harness, budget int) (Genome, Eval, ShrinkStats, error) {
	if budget <= 0 {
		budget = 400
	}
	var stats ShrinkStats
	cur := g.Clone()
	curEval, err := h.Eval(cur)
	if err != nil {
		return nil, Eval{}, stats, err
	}
	stats.Evals++
	if curEval.Class != class {
		// The parent no longer reproduces (should not happen with a
		// deterministic harness); hand it back untouched.
		return cur, curEval, stats, nil
	}

	// try evaluates a candidate within the budget and accepts it when
	// it still triggers class.
	try := func(cand Genome) (bool, error) {
		if stats.Evals >= budget {
			return false, nil
		}
		stats.Evals++
		e, err := h.Eval(cand)
		if err != nil || e.Class != class {
			return false, err
		}
		cur, curEval = cand, e
		stats.Steps++
		return true, nil
	}

	// Pass 1: remove chunks, halving the chunk size from len/2 down
	// to 2. Restart a size level whenever a removal sticks so earlier
	// offsets get retried against the smaller schedule.
	for size := len(cur) / 2; size >= 2; size /= 2 {
		for start := 0; start+size <= len(cur) && len(cur) > 1; {
			ok, err := try(removeRange(cur, start, size))
			if err != nil {
				return nil, Eval{}, stats, err
			}
			// On success keep start: the next chunk slid into this offset.
			if !ok {
				start += size
			}
		}
	}

	// Pass 2: single-gene removal to a fixpoint.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur) && len(cur) > 1; {
			ok, err := try(removeRange(cur, i, 1))
			if err != nil {
				return nil, Eval{}, stats, err
			}
			if ok {
				changed = true
			} else {
				i++
			}
		}
	}

	// Pass 3: zero the inter-event gaps — a reproducer with no idle
	// padding is easier to read and replays faster.
	for i := 0; i < len(cur); i++ {
		if cur[i].Gap == 0 {
			continue
		}
		cand := cur.Clone()
		cand[i].Gap = 0
		if _, err := try(cand); err != nil {
			return nil, Eval{}, stats, err
		}
	}

	return cur, curEval, stats, nil
}

// removeRange returns a copy of g without g[start : start+n].
func removeRange(g Genome, start, n int) Genome {
	out := make(Genome, 0, len(g)-n)
	out = append(out, g[:start]...)
	out = append(out, g[start+n:]...)
	return out
}
