package main

import (
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameExactlyTheDrivers holds the driver registry, DESIGN.md and
// README.md to one list: the keys `umzi-bench -list` prints must be
// Figures 8–15 plus exactly the ablation and extension IDs the DESIGN.md
// "Ablation studies" section names in bold, and exactly the figures the
// README's umzi-bench bullet names (ranges such as A1–A5 expanded).
func TestDocsNameExactlyTheDrivers(t *testing.T) {
	var registered []string
	for _, d := range drivers() {
		registered = append(registered, d.key)
	}
	sort.Strings(registered)
	check := func(doc string, documented []string) {
		t.Helper()
		sort.Strings(documented)
		if strings.Join(documented, " ") != strings.Join(registered, " ") {
			t.Errorf("%s names %v, umzi-bench -list prints %v", doc, documented, registered)
		}
	}

	var design []string
	for fig := 8; fig <= 15; fig++ {
		design = append(design, strconv.Itoa(fig))
	}
	section := docSection(t, "DESIGN.md", "## Ablation studies", "\n## ")
	for _, m := range regexp.MustCompile(`\*\*([AS]\d+)\*\*`).FindAllStringSubmatch(section, -1) {
		design = append(design, strings.ToLower(m[1]))
	}
	check("DESIGN.md", design)

	var readme []string
	bullet := docSection(t, "README.md", "`cmd/umzi-bench` regenerates", "\n- ")
	for _, m := range regexp.MustCompile(`\b([AS]?)(\d+)(?:–[AS]?(\d+))?`).FindAllStringSubmatch(bullet, -1) {
		lo, _ := strconv.Atoi(m[2])
		hi := lo
		if m[3] != "" {
			hi, _ = strconv.Atoi(m[3])
		}
		for n := lo; n <= hi; n++ {
			readme = append(readme, strings.ToLower(m[1])+strconv.Itoa(n))
		}
	}
	check("README.md", readme)
}

// docSection returns the text of a repository-root document that
// follows marker, up to the next end (or the end of the file).
func docSection(t *testing.T, name, marker, end string) string {
	t.Helper()
	doc, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(doc), marker)
	if start < 0 {
		t.Fatalf("%s has no %q", name, marker)
	}
	section := string(doc[start+len(marker):])
	if i := strings.Index(section, end); i >= 0 {
		section = section[:i]
	}
	return section
}
