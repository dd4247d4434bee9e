// Command reachfix is the reachability gate's fixture: lib.Unused has a
// caller only in a test, and the registry's "unnamed" entry is named
// nowhere outside its package. The gate must report both and nothing else.
package main

import (
	"reachfix/internal/policy"
	"reachfix/lib"
)

func main() {
	lib.Used()
	println(policy.Known("named"))
}
