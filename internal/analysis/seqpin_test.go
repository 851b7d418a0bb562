package analysis

import "testing"

func seqpinFixture(callerPath string) []fixturePkg {
	return []fixturePkg{
		{fixtureDir("seqpin", "store"), "fixture/internal/dhcp"},
		{fixtureDir("seqpin", "route"), callerPath},
	}
}

// Route-stage code reading the unpinned head (Lookup, Addrs) is the
// exactness bug; the pinned accessor, the sequence-tagged writer, and the
// byte gauge are sanctioned.
func TestSeqPinFlagsUnpinnedHeadReads(t *testing.T) {
	diags := runFixtureSeq(t, []*Analyzer{SeqPin}, seqpinFixture("fixture/internal/core")...)
	if len(diags) != 2 {
		t.Fatalf("expected exactly the two unpinned-read findings, got %d: %v", len(diags), diags)
	}
}

// The rule binds the route stage's package only: the same calls from a
// package outside internal/core are not route-stage reads.
func TestSeqPinIgnoresNonShardCallers(t *testing.T) {
	res := loadFixtureSeq(t, seqpinFixture("fixture/internal/toolbox")...)
	diags, err := Run(res, []*Analyzer{SeqPin})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("seqpin fired outside the route stage's package: %v", diags)
	}
}
