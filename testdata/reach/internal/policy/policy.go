package policy

var builtin = map[string]int{
	"named":   1,
	"unnamed": 2,
}

// Known reports whether name is registered.
func Known(name string) bool {
	_, ok := builtin[name]
	return ok
}
