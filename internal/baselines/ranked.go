// Ranked extension of the Technique interface: techniques that can order
// every service by suspicion, not just emit a flat candidate set. The arena
// (internal/arena) uses the ranking for top-1/top-3 accuracy; plain
// set-valued techniques are graded on their sets alone.
package baselines

import (
	"context"
	"sort"

	"causalfl/internal/metrics"
)

// Scored is one ranked localization candidate. Higher scores are more
// suspicious; ties are broken by service name so rankings are deterministic.
type Scored struct {
	Service string
	Score   float64
}

// RankedTechnique extends Technique with an ordered verdict. The contract
// mirrors core.Localization.Ranked(): scores descending, name-ascending on
// ties, and the leading tie group equal to what Localize returns whenever
// the technique's set verdict is score-derived.
type RankedTechnique interface {
	Technique
	// LocalizeRanked returns every scoreable service ordered by
	// suspicion. Train must have been called first.
	LocalizeRanked(ctx context.Context, production *metrics.Snapshot) ([]Scored, error)
}

// sortScored orders candidates score-descending with name-ascending
// tiebreaks, in place.
func sortScored(ranked []Scored) {
	sort.Slice(ranked, func(i, j int) bool {
		//vet:allow floateq -- sort tie-break: exact equality falls through to the alphabetical order
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		return ranked[i].Service < ranked[j].Service
	})
}

// RankedOrSets adapts any Technique to a ranked verdict: a RankedTechnique
// is asked directly, anything else has set — the candidate set its Localize
// already returned for production — lifted to a uniform-score ranking (each
// candidate scored 1, everything else omitted). Taking the set rather than
// calling Localize again keeps a stateful technique's set and ranking from
// coming from different draws.
func RankedOrSets(ctx context.Context, tech Technique, production *metrics.Snapshot, set []string) ([]Scored, error) {
	if rt, ok := tech.(RankedTechnique); ok {
		return rt.LocalizeRanked(ctx, production)
	}
	ranked := make([]Scored, 0, len(set))
	for _, svc := range set {
		ranked = append(ranked, Scored{Service: svc, Score: 1})
	}
	sortScored(ranked)
	return ranked, nil
}
