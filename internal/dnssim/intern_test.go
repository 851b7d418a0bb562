package dnssim

import "testing"

// TestInterner pins the interner contract: one index per distinct domain,
// the string read back by index, and the empty string passing through as
// index 0 without being stored.
func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("facebook.com")
	b := in.Intern("facebook.com")
	if a != b {
		t.Error("equal strings interned to different indexes")
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d, want 1", in.Len())
	}
	c := in.Intern("fbcdn.net")
	if in.Len() != 2 || c == a {
		t.Errorf("Len = %d, want 2; indexes %d, %d", in.Len(), a, c)
	}
	if in.String(a) != "facebook.com" || in.String(c) != "fbcdn.net" {
		t.Errorf("String = %q, %q", in.String(a), in.String(c))
	}
	if got := in.Intern(""); got != 0 || in.String(got) != "" {
		t.Errorf("Intern(%q) = %d (%q), want 0", "", got, in.String(got))
	}
	if in.Len() != 2 {
		t.Errorf("empty string was stored: Len = %d, want 2", in.Len())
	}
}
