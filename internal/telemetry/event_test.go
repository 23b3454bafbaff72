package telemetry

import (
	"reflect"
	"testing"
)

// TestFlatten: nested Observers expand in delivery order, so calling
// each flattened observer in turn delivers what Observers.Observe
// would; a nil observer and an empty fan-out flatten to nothing.
func TestFlatten(t *testing.T) {
	var got []string
	obs := func(name string) Observer {
		return ObserverFunc(func(Event) { got = append(got, name) })
	}
	nested := Observers{obs("a"), Observers{obs("b"), Observers{}, obs("c")}, obs("d")}
	flat := Flatten(nested)
	for _, o := range flat {
		o.Observe(Event{Kind: KindTrial})
	}
	viaFanOut := got
	got = nil
	nested.Observe(Event{Kind: KindTrial})
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(viaFanOut, want) || !reflect.DeepEqual(got, want) {
		t.Errorf("flattened delivery %v, fan-out %v, want %v", viaFanOut, got, want)
	}
	if f := Flatten(nil); f != nil {
		t.Errorf("Flatten(nil) = %v", f)
	}
	if f := Flatten(Observers{}); len(f) != 0 {
		t.Errorf("Flatten(Observers{}) = %v", f)
	}
	tr := NewTracer(nil, 1)
	if f := Flatten(tr); len(f) != 1 || f[0] != tr {
		t.Errorf("Flatten(tracer) = %v", f)
	}
}
