package lib

// Used has a caller in main.
func Used() {}

// Unused is called only by lib_test.go.
func Unused() {}
