// Fixture for the noalloc analyzer: allocation-introducing constructs
// inside functions marked //adasum:noalloc. Unannotated functions are
// never checked.
package noallocfix

import (
	"errors"
	"fmt"
)

type thing struct{ x int }

//adasum:noalloc
func builtins(xs []int) []int {
	buf := make([]int, 8) // want `make allocates in builtins`
	p := new(thing)       // want `new allocates in builtins`
	xs = append(xs, p.x)  // want `append may grow its backing array in builtins`
	copy(buf, xs)         // copy into an existing backing array: fine
	return xs[:min(8, len(xs))]
}

//adasum:noalloc
func literals() int {
	s := []int{1, 2, 3}         // want `slice literal allocates in literals`
	m := map[string]int{"a": 1} // want `map literal allocates in literals`
	t := thing{x: 4}            // value struct literal stays on the stack: fine
	pt := &thing{x: 5}          // want `&composite literal escapes to the heap in literals`
	var arr [4]int              // array value: fine
	return s[0] + m["a"] + t.x + pt.x + arr[0]
}

//adasum:noalloc
func closures(n int) int {
	f := func() int { return n }  // want `closure capturing n allocates in closures`
	g := func() int { return 42 } // non-capturing closure compiles to a static func: fine
	return f() + g()              // want `function value f cannot be verified allocation-free` `function value g cannot be verified allocation-free`
}

func spin() {}

//adasum:noalloc
func spawns() {
	go spin() // want `go statement allocates a goroutine in spawns`
}

//adasum:noalloc
func strings(a, b string) int {
	c := a + b      // want `string concatenation allocates in strings`
	bs := []byte(a) // want `string-to-slice conversion allocates in strings`
	d := string(bs) // want `\[\]byte/\[\]rune-to-string conversion allocates in strings`
	return len(c) + len(d)
}

func sink(v any) { _ = v }

func variadic(vs ...int) int { return len(vs) }

//adasum:noalloc
func boxing(n int, p *thing) any {
	sink(n)            // want `argument boxes int into (any|interface\{\}) \(allocates\) in boxing`
	sink(p)            // pointers fit the interface word: fine
	var i any = n      // want `assignment boxes int into (any|interface\{\}) \(allocates\) in boxing`
	i = n              // want `assignment boxes int into (any|interface\{\}) \(allocates\) in boxing`
	_ = any(n)         // want `conversion boxes int into (any|interface\{\}) \(allocates\) in boxing`
	_ = variadic(n, n) // want `variadic call allocates its \.\.\. slice in boxing`
	if i != nil {
		return p // pointer return into any: fine
	}
	return n // want `return boxes int into (any|interface\{\}) \(allocates\) in boxing`
}

//adasum:noalloc
func formats(n int) string {
	s := fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf allocates in formats`
	err := errors.New("boom")   // want `errors\.New allocates in formats`
	if err != nil {
		return s
	}
	return ""
}

//adasum:noalloc
func guarded(n int) int {
	if n < 0 {
		// Constructs inside a direct panic(...) argument never run in
		// steady state and are exempt.
		panic(fmt.Sprintf("guarded: negative n %d", n))
	}
	return n
}

//adasum:noalloc
func mintOnMiss(pool [][]float64) []float64 {
	if len(pool) == 0 {
		return make([]float64, 256) //adasum:alloc ok pool miss mints a fresh buffer; steady state reuses
	}
	return pool[len(pool)-1]
}

func declLine(n int) []int { //adasum:noalloc
	return make([]int, n) // want `make allocates in declLine`
}

func unannotated() []int {
	return make([]int, 8) // not marked: never checked
}
