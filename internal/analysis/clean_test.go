package analysis

import "testing"

// TestRepositoryIsClean is the acceptance gate: the full suite over the
// whole module must report nothing. Any new wall-clock read, global rand
// draw, map-order leak, raw-identifier crossing, unguarded obs method,
// dropped hot-path error, mixed plain/atomic field access, pool-protocol
// breach, or unowned goroutine fails this test (and
// `make lint` / the lint-custom CI job) until fixed or suppressed with a
// justification.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped in -short")
	}
	res, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(res.Packages) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(res.Packages))
	}
	diags, err := Run(res, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("privleak,errpath")
	if err != nil || len(got) != 2 || got[0].Name != "privleak" || got[1].Name != "errpath" {
		t.Fatalf("ByName selection failed: %v %v", got, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown analyzer name did not error")
	}
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("default selection: %v %v", all, err)
	}
}
