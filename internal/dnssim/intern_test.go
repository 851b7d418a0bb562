package dnssim

import "testing"

// TestInterner pins the interner contract: one canonical string per
// distinct domain, and the empty string passing through without being stored.
func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("facebook.com")
	b := in.Intern("facebook.com")
	if a != b {
		t.Error("equal strings interned to different values")
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d, want 1", in.Len())
	}
	in.Intern("fbcdn.net")
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if got := in.Intern(""); got != "" {
		t.Errorf("Intern(%q) = %q", "", got)
	}
	if in.Len() != 2 {
		t.Errorf("empty string was stored: Len = %d, want 2", in.Len())
	}
}
