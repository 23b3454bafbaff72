// Package interp executes compiled programs one instruction at a time
// under an externally supplied scheduler. It is the substrate standing
// in for the paper's pthreads/C execution environment: threads, shared
// globals, a heap, locks, and crash semantics (null dereference, array
// bounds, division by zero, failed assertions) that produce core dumps.
//
// One instruction is one atomic step; all non-determinism lives in the
// order threads are stepped, which is exactly the degree of freedom the
// schedule-search phase explores.
package interp

import "fmt"

// Kind discriminates runtime values.
type Kind uint8

const (
	// KInt is a 64-bit integer.
	KInt Kind = iota
	// KBool is a boolean (Num is 0 or 1).
	KBool
	// KPtr is a heap pointer (Num is the object id; 0 is null).
	KPtr
)

// Value is a runtime value. The representation is a compact tagged
// word so values are comparable with == and cheap to snapshot into
// core dumps.
type Value struct {
	Kind Kind
	Num  int64
}

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Kind: KInt, Num: v} }

// BoolVal makes a boolean value.
func BoolVal(b bool) Value {
	if b {
		return Value{Kind: KBool, Num: 1}
	}
	return Value{Kind: KBool, Num: 0}
}

// PtrVal makes a pointer value.
func PtrVal(obj ObjID) Value { return Value{Kind: KPtr, Num: int64(obj)} }

// Null is the null pointer.
var Null = Value{Kind: KPtr, Num: 0}

// Bool reports the truthiness of a KBool value; integers are truthy
// when non-zero, pointers when non-null, so conditions may use any
// kind, mirroring C.
func (v Value) Bool() bool { return v.Num != 0 }

// Obj returns the object id of a pointer value.
func (v Value) Obj() ObjID { return ObjID(v.Num) }

// String renders the value for diagnostics and dump reports.
func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.Num)
	case KBool:
		if v.Num != 0 {
			return "true"
		}
		return "false"
	case KPtr:
		if v.Num == 0 {
			return "null"
		}
		return fmt.Sprintf("obj#%d", v.Num)
	}
	return fmt.Sprintf("value(%d,%d)", v.Kind, v.Num)
}

// ObjID identifies a heap object; 0 is reserved for null.
type ObjID int64

// Object is a heap record. Its fields are addressed by position:
// Names[i] names field i by its id in the program's field-name pool
// (ir.Bytecode.Names) and Vals[i] holds its value, in `new` order. A
// store to a field the object lacks appends it, so Names starts as the
// compiled field set and is copied only when the object grows.
type Object struct {
	Names []int32
	Vals  []Value
}

// field returns the position of the field with name id, or -1. A `new`
// names one to a few fields, so a scan beats any lookup structure.
func (o *Object) field(id int32) int {
	for i, n := range o.Names {
		if n == id {
			return i
		}
	}
	return -1
}
