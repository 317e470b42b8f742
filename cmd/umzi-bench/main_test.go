package main

import (
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameExactlyTheDrivers holds the driver registry and DESIGN.md
// to one list: the keys `umzi-bench -list` prints must be Figures 8–15
// plus exactly the ablation and extension IDs the "Ablation studies"
// section names in bold.
func TestDocsNameExactlyTheDrivers(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "## Ablation studies"
	start := strings.Index(string(doc), heading)
	if start < 0 {
		t.Fatalf("DESIGN.md has no %q section", heading)
	}
	section := string(doc[start+len(heading):])
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}

	var documented []string
	for fig := 8; fig <= 15; fig++ {
		documented = append(documented, strconv.Itoa(fig))
	}
	for _, m := range regexp.MustCompile(`\*\*([AS]\d+)\*\*`).FindAllStringSubmatch(section, -1) {
		documented = append(documented, strings.ToLower(m[1]))
	}
	var registered []string
	for _, d := range drivers() {
		registered = append(registered, d.key)
	}
	sort.Strings(documented)
	sort.Strings(registered)
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Errorf("DESIGN.md names %v, umzi-bench -list prints %v", documented, registered)
	}
}
