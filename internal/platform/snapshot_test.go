package platform_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
)

// activityJSONFields is Activity's JSON field list, in order. The
// benchmark hashes json.Marshal(Activity) against the digests in
// bench/testdata/reference.json, so the list is frozen until the
// benchmark changes with it.
var activityJSONFields = []string{
	"Cycle", "OpsPerCore", "TotalOps",
	"Instrs", "BusyCycles", "MemWaitCycles", "SleepCycles", "PauseCycles",
	"IssueStallCycles", "HaltedCycles",
	"SCSuccess", "SCFail", "WaitRefusals",
	"Deliveries",
	"Flits", "BankAccesses", "BankWrites", "BankResponses",
	"SuccUpdates", "WakeUps",
}

// TestActivityShapeFrozen pins Activity's JSON shape and guards the
// generic Delta against a field type it would skip.
func TestActivityShapeFrozen(t *testing.T) {
	fields := make([]string, len(activityJSONFields))
	for i, name := range activityJSONFields {
		v := "0"
		if name == "OpsPerCore" {
			v = "null"
		}
		fields[i] = fmt.Sprintf("%q:%s", name, v)
	}
	want := "{" + strings.Join(fields, ",") + "}"
	b, err := json.Marshal(platform.Activity{})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != want {
		t.Errorf("Activity JSON changed; its field list is frozen by the benchmark's Activity digest "+
			"(bench/testdata/reference.json) until a benchmark change updates both\ngot:  %s\nwant: %s",
			got, want)
	}
	// An unexported field would not show in the JSON but would still
	// break the reflect.DeepEqual parity checks; new counters go beside
	// Activity in the counter record instead.
	if n := reflect.TypeOf(platform.Activity{}).NumField(); n != len(activityJSONFields) {
		t.Errorf("Activity has %d fields, want the %d frozen JSON fields and no others", n, len(activityJSONFields))
	}

	// Give every counter a distinct non-zero value.
	var x platform.Activity
	v := reflect.ValueOf(&x).Elem()
	next := uint64(1)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(next)
		case reflect.Int64:
			f.SetInt(int64(next))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]uint64{next, next + 100, next + 200}))
		default:
			t.Fatalf("Activity.%s has kind %v; teach this test and Delta about it",
				v.Type().Field(i).Name, f.Kind())
		}
		next++
	}
	if d := platform.Delta(platform.Activity{}, x); !reflect.DeepEqual(d, x) {
		t.Errorf("Delta(zero, x) != x\ngot:  %+v\nwant: %+v", d, x)
	}
	d := platform.Delta(x, x)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		f, name := dv.Field(i), dv.Type().Field(i).Name
		if f.Kind() == reflect.Slice {
			if f.Len() != len(x.OpsPerCore) {
				t.Errorf("Delta(x, x).%s has %d elements, want %d", name, f.Len(), len(x.OpsPerCore))
			}
			for j := 0; j < f.Len(); j++ {
				if !f.Index(j).IsZero() {
					t.Errorf("Delta(x, x).%s[%d] = %v, want 0", name, j, f.Index(j))
				}
			}
		} else if !f.IsZero() {
			t.Errorf("Delta(x, x).%s = %v, want 0", name, f)
		}
	}
}
