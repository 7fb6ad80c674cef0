package minic

import "testing"

// FuzzParse feeds arbitrary text to the front end: Parse never panics,
// whatever it is given, and Check never panics on a program Parse
// accepted (an error from either is fine).
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"struct", // a top-level lookahead once read past the end
		"struct s",
		"int f(void",
		"int f(void) { return 0; }",
		"struct s { int x; char *p; }; int g(struct s *v) { return v->x; }",
		"extern int h(int a);",
		exampleSrc,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		_ = Check(p)
	})
}
