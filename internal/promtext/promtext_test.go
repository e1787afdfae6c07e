package promtext

import "testing"

// TestWriterFormat pins the exposition text: HELP before TYPE, %d
// integers, %g floats, %q label values, and sorted key then code order.
func TestWriterFormat(t *testing.T) {
	var w Writer
	w.Counter("c_total", "A counter.", 12345678901)
	w.GaugeFloat("ratio", "A ratio.", 0.25)
	w.CounterFloat("secs_total", "Seconds.", 1e-7)
	w.Gauge("depth", "A gauge.", -1)
	codes := Codes{}
	codes.Add("b", 500)
	codes.Add("b", 200)
	codes.Add("a", 429)
	codes.Add("b", 200)
	w.Family("req_total", "counter", "Requests.")
	w.ByCode("req_total", "endpoint", codes)
	w.Family("by_tier", "counter", "By tier.")
	w.ByKey("by_tier", "tier", map[string]int64{"full": 2, "fast": 1, `q"x`: 3})
	w.Int("two", 7, "kind", "k", "outcome", "o")

	const want = `# HELP c_total A counter.
# TYPE c_total counter
c_total 12345678901
# HELP ratio A ratio.
# TYPE ratio gauge
ratio 0.25
# HELP secs_total Seconds.
# TYPE secs_total counter
secs_total 1e-07
# HELP depth A gauge.
# TYPE depth gauge
depth -1
# HELP req_total Requests.
# TYPE req_total counter
req_total{endpoint="a",code="429"} 1
req_total{endpoint="b",code="200"} 2
req_total{endpoint="b",code="500"} 1
# HELP by_tier By tier.
# TYPE by_tier counter
by_tier{tier="fast"} 1
by_tier{tier="full"} 2
by_tier{tier="q\"x"} 3
two{kind="k",outcome="o"} 7
`
	if got := w.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}
