// Package nec implements lightweight named entity classification
// (Sec. 2.4.4): predicting a mention's coarse semantic type (person,
// organization, location, ...) from its context, trained from the
// knowledge base's own type-keyword co-occurrences — the fine-grained type
// systems of Yosef et al. [YBH+12] reduced to the signal NED can use as a
// candidate filter.
package nec

import (
	"math"
	"sort"

	"aida/internal/disambig"
	"aida/internal/kb"
)

// Classifier scores semantic types against mention contexts. Build with
// Train; safe for concurrent use afterwards.
type Classifier struct {
	types []string
	// centroid[type][word] = tf-idf weight of the word in the type's
	// aggregated keyphrase vocabulary.
	centroid map[string]map[string]float64
	norm     map[string]float64
	idf      func(string) float64
}

// Train builds a classifier from the KB: each entity's keyphrase words
// count toward all of the entity's types, mirroring how Wikipedia links
// serve as distant supervision for type classifiers. Entity ids are dense,
// so the id walk covers every shard of a fleet in id order.
func Train(k kb.Store) *Classifier {
	counts := map[string]map[string]float64{}
	for id := 0; id < k.NumEntities(); id++ {
		e := k.Entity(kb.EntityID(id))
		for _, typ := range e.Types {
			m := counts[typ]
			if m == nil {
				m = map[string]float64{}
				counts[typ] = m
			}
			for _, kp := range e.Keyphrases {
				for _, w := range kp.Words {
					m[w]++
				}
			}
		}
	}
	c := &Classifier{
		centroid: make(map[string]map[string]float64, len(counts)),
		norm:     make(map[string]float64, len(counts)),
		idf:      k.WordIDF,
	}
	for typ, m := range counts {
		c.types = append(c.types, typ)
		vec := make(map[string]float64, len(m))
		var norm float64
		for w, cnt := range m {
			v := math.Log1p(cnt) * idfOf(k.WordIDF, w)
			vec[w] = v
			norm += v * v
		}
		c.centroid[typ] = vec
		c.norm[typ] = math.Sqrt(norm)
	}
	sort.Strings(c.types)
	return c
}

func idfOf(idf func(string) float64, w string) float64 {
	if v := idf(w); v > 0 {
		return v
	}
	return 0.1
}

// Types lists the trained types, sorted.
func (c *Classifier) Types() []string { return c.types }

// Scores returns the cosine similarity of the context to each type
// centroid.
func (c *Classifier) Scores(contextWords []string) map[string]float64 {
	tf := map[string]float64{}
	for _, w := range contextWords {
		tf[w]++
	}
	words := make([]string, 0, len(tf))
	var ctxNorm float64
	for w, f := range tf {
		words = append(words, w)
		v := f * idfOf(c.idf, w)
		ctxNorm += v * v
	}
	sort.Strings(words)
	ctxNorm = math.Sqrt(ctxNorm)
	out := make(map[string]float64, len(c.types))
	for _, typ := range c.types {
		vec := c.centroid[typ]
		var dot float64
		for _, w := range words {
			if cv, ok := vec[w]; ok {
				dot += tf[w] * idfOf(c.idf, w) * cv
			}
		}
		if ctxNorm > 0 && c.norm[typ] > 0 {
			out[typ] = dot / (ctxNorm * c.norm[typ])
		}
	}
	return out
}

// Best returns the highest-scoring type (ties break alphabetically) and
// its score; empty when the classifier has no types.
func (c *Classifier) Best(contextWords []string) (string, float64) {
	scores := c.Scores(contextWords)
	best, bestV := "", -1.0
	for _, typ := range c.types {
		if v := scores[typ]; v > bestV {
			best, bestV = typ, v
		}
	}
	if bestV < 0 {
		return "", 0
	}
	return best, bestV
}

// FilterCandidates demotes candidates whose entity types disagree with the
// predicted context type: when at least one candidate matches the type,
// non-matching candidates are removed. Placeholder (out-of-KB) candidates
// are always kept — type filtering must never suppress emerging entities.
// margin is the minimum winning score for the filter to engage at all
// (low-confidence type predictions should not prune).
func (c *Classifier) FilterCandidates(p *disambig.Problem, margin float64) {
	typ, score := c.Best(p.ContextWords)
	if typ == "" || score < margin {
		return
	}
	for i := range p.Mentions {
		m := &p.Mentions[i]
		var kept []disambig.Candidate
		anyMatch := false
		for _, cand := range m.Candidates {
			if cand.Entity == kb.NoEntity || hasType(cand, typ) {
				if cand.Entity != kb.NoEntity {
					anyMatch = true
				}
				kept = append(kept, cand)
			}
		}
		if anyMatch {
			m.Candidates = kept
		}
	}
}

// hasType checks the candidate's KB types. Candidates carry no type list
// directly; the label's entity does, so the caller must have built the
// problem from a KB. The helper is resilient to placeholder candidates.
func hasType(c disambig.Candidate, typ string) bool {
	for _, t := range c.Types {
		if t == typ {
			return true
		}
	}
	return false
}
