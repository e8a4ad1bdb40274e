package main

// checkSlices is the accuracy gate on short-serve's hard-ambiguity slices,
// the only workload that sends context-prior and domain-layer requests:
// each slice's accuracy over the served answers must reach its floor in
// design.json. Those floors sit under what the 50k world measures, which
// is below the golden-KB floors the hard-ambiguity tests pin; a slice
// under its golden-KB floor is reported, not failed.
func (b *bench) checkSlices(context, domain accuracy) {
	f := b.design.Floors
	for _, s := range []struct {
		name          string
		acc           accuracy
		floor, golden float64
	}{
		{"context", context, f.Context, f.GoldenContext},
		{"domain", domain, f.Domain, f.GoldenDomain},
	} {
		verdict := "meets"
		if s.acc.rate() < s.golden {
			verdict = "below"
		}
		b.rep.note("%s slice accuracy %.4f (%d/%d): gate floor %.2f; %s the golden-KB floor %.2f",
			s.name, s.acc.rate(), s.acc.correct, s.acc.total, s.floor, verdict, s.golden)
		if s.acc.total == 0 || s.acc.rate() < s.floor {
			b.rep.violate("%s slice accuracy %.4f below its floor %.2f", s.name, s.acc.rate(), s.floor)
		}
	}
}
