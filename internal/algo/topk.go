package algo

import "sort"

// Scored pairs a node id with a score, for ranked results.
type Scored struct {
	ID    int64
	Score float64
}

// TopK returns the k highest-scored nodes in descending score order, ties
// broken by ascending id so results are deterministic. k larger than the
// map returns everything; k <= 0 returns an empty result.
func TopK(scores map[int64]float64, k int) []Scored {
	if k <= 0 {
		return []Scored{}
	}
	all := make([]Scored, 0, len(scores))
	for id, s := range scores {
		all = append(all, Scored{id, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// SumScores returns the sum of all scores (used by tests to check that
// PageRank is a probability distribution).
func SumScores(scores map[int64]float64) float64 {
	var s float64
	for _, v := range scores {
		s += v
	}
	return s
}
