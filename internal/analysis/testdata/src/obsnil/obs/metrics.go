// Fixture for the obsnil analyzer, loaded with import path suffix
// internal/obs so the Metrics/Progress/Counter nil-receiver contract
// applies.
package obs

// Metrics mirrors the obs handle contract: a possibly-nil pointer every
// exported method must tolerate.
type Metrics struct {
	count int64
	label string
}

func (m *Metrics) Add(n int64) { // early-return guard: fine
	if m == nil {
		return
	}
	m.count += n
}

func (m *Metrics) SetLabel(l string) { // wrap guard: fine
	if m != nil {
		m.label = l
	}
}

func (m *Metrics) AddPositive(n int64) { // compound guard: fine
	if m == nil || n <= 0 {
		return
	}
	m.count += n
}

func (m *Metrics) Count() int64 { // want "nil guard"
	return m.count
}

func (m *Metrics) Snapshot() (int64, string) { // decl before guard: fine
	var zero int64
	if m == nil {
		return zero, ""
	}
	return m.count, m.label
}

func (m *Metrics) Reset() { // want "nil guard"
	if m != nil {
		m.count = 0
	}
	m.label = "" // receiver escapes the wrap guard
}

func (m *Metrics) Kind() string { return "metrics" } // receiver unused: fine

func (m *Metrics) bump() { m.count++ } // unexported: callers guard first

// Progress is the second guarded handle type.
type Progress struct{ done int64 }

func (p *Progress) SetDone(n int64) { // want "nil guard"
	p.done = n
}

// Counter is the registered metric cell, also a guarded handle type.
type Counter struct{ v int64 }

func (c *Counter) Load() int64 { // early-return guard: fine
	if c == nil {
		return 0
	}
	return c.v
}

func (c *Counter) Add(n int64) { // want "nil guard"
	c.v += n
}

// Other is not a guarded handle type; no guard required.
type Other struct{ x int }

func (o *Other) Touch() { o.x++ }
