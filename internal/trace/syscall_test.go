package trace

import (
	"reflect"
	"testing"
)

// SyscallEvent must stay pointer-free and small: a request's event stream is
// then one flat allocation the garbage collector never scans, and appending
// to it needs no write barriers.
func TestSyscallEventIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(SyscallEvent{})
	if size := typ.Size(); size > 24 {
		t.Fatalf("SyscallEvent is %d bytes, want at most 24", size)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface,
			reflect.Struct, reflect.Array:
			t.Fatalf("SyscallEvent.%s has kind %v, want a pointer-free scalar", f.Name, f.Type.Kind())
		}
	}
}

func TestSyscallNamesAreUnique(t *testing.T) {
	if NoSyscall != 0 || NoSyscall.String() != "" {
		t.Fatalf("NoSyscall must be the zero value with an empty name, got %d %q", NoSyscall, NoSyscall)
	}
	seen := map[string]Syscall{}
	for id := NoSyscall + 1; id < numSyscalls; id++ {
		name := id.String()
		if name == "" {
			t.Fatalf("Syscall(%d) has an empty name", id)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("Syscall(%d) and Syscall(%d) share the name %q", prev, id, name)
		}
		seen[name] = id
	}
	if got := Syscall(255).String(); got != "Syscall(255)" {
		t.Fatalf("out-of-range ID prints %q", got)
	}
}
