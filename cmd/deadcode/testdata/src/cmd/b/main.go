// Command b is a deadcode test fixture: its helper is dead, though
// program a's dump names a main.helper.
package main

func main() {}

func helper() {}
