package stats

// HoursPerWeek is the number of hour-of-week buckets (7×24).
const HoursPerWeek = 168

// HourMatrix accumulates per-device traffic volume into hour-of-week
// buckets for one week, then reduces each bucket to the median across
// devices — the quantity plotted in the paper's Figure 3.
type HourMatrix struct {
	byDevice map[uint64]*[HoursPerWeek]float64
}

// NewHourMatrix returns an empty matrix.
func NewHourMatrix() *HourMatrix {
	return &HourMatrix{byDevice: make(map[uint64]*[HoursPerWeek]float64)}
}

// Add accounts v (e.g. bytes) to the given device's hour-of-week bucket.
// Hours outside [0,168) are ignored.
func (m *HourMatrix) Add(device uint64, hour int, v float64) {
	if hour < 0 || hour >= HoursPerWeek {
		return
	}
	row := m.byDevice[device]
	if row == nil {
		row = new([HoursPerWeek]float64)
		m.byDevice[device] = row
	}
	row[hour] += v
}

// Devices returns the number of devices with any recorded traffic.
func (m *HourMatrix) Devices() int { return len(m.byDevice) }

// Medians returns, for each hour of the week, the median per-device volume
// across all devices seen in this matrix (devices idle in an hour
// contribute zero for that hour). An empty matrix yields all zeros.
func (m *HourMatrix) Medians() [HoursPerWeek]float64 {
	var out [HoursPerWeek]float64
	if len(m.byDevice) == 0 {
		return out
	}
	col := make([]float64, 0, len(m.byDevice))
	for h := 0; h < HoursPerWeek; h++ {
		col = col[:0]
		//lintlock:ignore determinism Median sorts a copy of col, so map order never reaches output
		for _, row := range m.byDevice {
			col = append(col, row[h])
		}
		out[h] = Median(col)
	}
	return out
}

// Totals returns, for each hour of the week, the summed volume across
// devices.
func (m *HourMatrix) Totals() [HoursPerWeek]float64 {
	var out [HoursPerWeek]float64
	for _, row := range m.byDevice {
		for h, v := range row {
			out[h] += v
		}
	}
	return out
}
