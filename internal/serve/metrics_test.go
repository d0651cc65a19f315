package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestMetricsExpositionsComplete gives every atomic counter and gauge of
// the metrics block a distinct value and requires each value in both
// renderings of /metrics, the JSON snapshot and the Prometheus text. A
// counter declared but never exported, or dropped from one exposition and
// kept in the other, fails here. A counter kept in nanoseconds (its name
// ends in NS) is exported in seconds by Prometheus.
func TestMetricsExpositionsComplete(t *testing.T) {
	s := testServer(t, nil)
	want := map[string]int64{}
	v := reflect.ValueOf(&s.m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Type() != reflect.TypeOf(atomic.Int64{}) {
			continue
		}
		name := v.Type().Field(i).Name
		want[name] = 7_000_000_000 + int64(i)*101
		(*atomic.Int64)(unsafe.Pointer(f.UnsafeAddr())).Store(want[name])
	}
	if len(want) < 26 {
		t.Fatalf("found %d atomic counters in the metrics block; the reflection walk is broken", len(want))
	}

	render := func(path string) string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	inJSON := map[float64]bool{}
	var doc any
	if err := json.Unmarshal([]byte(render("/metrics")), &doc); err != nil {
		t.Fatal(err)
	}
	var walk func(any)
	walk = func(x any) {
		switch x := x.(type) {
		case float64:
			inJSON[x] = true
		case map[string]any:
			for _, y := range x {
				walk(y)
			}
		case []any:
			for _, y := range x {
				walk(y)
			}
		}
	}
	walk(doc)

	inProm := map[float64]bool{}
	for _, line := range strings.Split(render("/metrics?format=prometheus"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		val, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		inProm[val] = true
	}

	for name, n := range want {
		if !inJSON[float64(n)] {
			t.Errorf("%s (%d) is missing from the JSON snapshot", name, n)
		}
		prom := float64(n)
		if strings.HasSuffix(name, "NS") {
			prom /= float64(time.Second)
		}
		if !inProm[prom] {
			t.Errorf("%s (%v) is missing from the Prometheus exposition", name, prom)
		}
	}
}
