package runner

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
)

// Job is one cacheable unit of work: a plain value whose content is
// everything Run reads, apart from code and the workload suite. Two jobs of
// the same type with equal content must produce equal results, so the
// content is the job's cache key (see Key). Cell is the standard job;
// experiments define their own job types for custom setups.
type Job[T any] interface {
	// Label names the job in progress lines.
	Label() string
	// Run computes the result from scratch.
	Run() (T, error)
}

// Key returns job's content address: an FNV-1a hash over SchemaVersion, the
// job's type name and a canonical rendering of its whole value, pointers
// followed. Any change to any field — a cache size, a fault level's down
// time, a sweep constant — lands the job at a different address. Maps,
// funcs, channels and interfaces have no canonical rendering unless nil, so
// a job holding a non-nil one is rejected.
func Key(job any) (uint64, error) {
	v := reflect.ValueOf(job)
	if !v.IsValid() {
		return 0, fmt.Errorf("runner: nil job")
	}
	b := fmt.Appendf(nil, "schema=%d|%s|%s|", SchemaVersion, v.Type().PkgPath(), v.Type())
	b, err := appendValue(b, v)
	if err != nil {
		return 0, fmt.Errorf("runner: job %s: %w", v.Type(), err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// appendValue appends v's canonical rendering to b. The rendering is
// injective within a type: strings are quoted, sequences bracketed, floats
// written bit-exact and nil pointers distinguished from pointees. Values
// must be acyclic.
func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case reflect.Float32, reflect.Float64:
		return strconv.AppendUint(append(b, 'f'), math.Float64bits(v.Float()), 16), nil
	case reflect.String:
		return strconv.AppendQuote(b, v.String()), nil
	case reflect.Array, reflect.Slice:
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if b, err = appendValue(b, v.Index(i)); err != nil {
				return b, err
			}
			b = append(b, ',')
		}
		return append(b, ']'), nil
	case reflect.Struct:
		b = append(b, '{')
		for i := 0; i < v.NumField(); i++ {
			if b, err = appendValue(b, v.Field(i)); err != nil {
				return b, fmt.Errorf("%s: %w", v.Type().Field(i).Name, err)
			}
			b = append(b, ',')
		}
		return append(b, '}'), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, "nil"...), nil
		}
		return appendValue(append(b, '&'), v.Elem())
	case reflect.Map, reflect.Func, reflect.Chan, reflect.Interface:
		if v.IsNil() {
			return append(b, "nil"...), nil
		}
	}
	return b, fmt.Errorf("%s value has no canonical rendering", v.Type())
}
