package repro

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// DESIGN.md §3's module map and the directories under internal/ are
// the same set: the map names no package that is not there, and no
// package is missing from it.
func TestDesignModuleMapMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no §3")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")

	for _, m := range regexp.MustCompile("`internal/([a-z0-9_]+)`").FindAllStringSubmatch(sec, -1) {
		if st, err := os.Stat("internal/" + m[1]); err != nil || !st.IsDir() {
			t.Errorf("DESIGN.md §3 names `internal/%s`, which is not a directory", m[1])
		}
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `internal/([a-z0-9_]+)` \\|").FindAllStringSubmatch(sec, -1) {
		rows[m[1]] = true
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !rows[d.Name()] {
			t.Errorf("internal/%s has no row in DESIGN.md §3's module map", d.Name())
		}
	}
}
