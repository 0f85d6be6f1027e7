// Package lib is a fixture of the deadcode test; dump.txt names each
// function the way the linker does, Kept only by its per-function data.
package lib

type cache[K comparable, V any] struct{ m map[K]V }

func (c *cache[K, V]) get(k K) V { return c.m[k] }

func Walk(fn func()) { func() { fn() }() }

type T struct{}

func (T) Visit() {}

func Kept() {}
