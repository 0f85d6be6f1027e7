// Command a is a deadcode test fixture: it calls its helper.
package main

func main() { helper() }

func helper() {}
