package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// metricRegRe matches a metric registration: .Counter("name",
// .Gauge("name", .Histogram("name". A name ending in "." is a
// per-tenant family prefix completed at runtime.
var metricRegRe = regexp.MustCompile(`\.(Counter|Gauge|Histogram)\("([^"]+)"`)

// spanStartRe matches a span started under a literal name:
// .Child("name", .Start("name", .StartCtx(ctx, "name", and the
// tracer's own .newSpan("name" (the watchdog's incident span).
var spanStartRe = regexp.MustCompile(`\.(Child|Start|StartCtx|newSpan)\((?:ctx, )?"([^"]+)"`)

// TestMetricDocDrift is the doc-drift gate: every metric name
// registered anywhere in the source must be documented in
// docs/OBSERVABILITY.md or docs/SERVICE.md, and every metric name
// listed in those documents' metric tables must exist in the source.
// The same holds for flight-recorder event kinds: every eventKindNames
// entry needs a row in the OBSERVABILITY.md event table, and every row
// there must name a registered kind. Span names are held to the Span
// taxonomy table the same way: every span the root module's non-test
// source starts under a literal name needs a row, and every row must
// name a span the source starts (perfbench/ is a module of its own,
// whose layer spans are defined in perfbench/workloads.json). It runs
// in the standard test suite, so `make check` (via its -race test
// pass) fails on drift in either direction.
func TestMetricDocDrift(t *testing.T) {
	root := "../.."
	perfbench := filepath.Join(root, "perfbench")

	// Every registered metric name (non-test source, repo-wide) and
	// every span name started in the root module.
	registered := map[string]bool{}
	started := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRegRe.FindAllStringSubmatch(string(data), -1) {
			registered[m[2]] = true
		}
		if !strings.HasPrefix(path, perfbench+string(filepath.Separator)) {
			for _, m := range spanStartRe.FindAllStringSubmatch(string(data), -1) {
				started[m[2]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(registered) < 20 {
		t.Fatalf("found only %d registered metrics — the source scan is broken", len(registered))
	}

	docPaths := []string{
		filepath.Join(root, "docs", "OBSERVABILITY.md"),
		filepath.Join(root, "docs", "SERVICE.md"),
	}
	var docText strings.Builder
	docs := make(map[string]string, len(docPaths))
	for _, p := range docPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs[p] = string(data)
		docText.WriteString(docs[p])
	}
	documented := docTokens(docText.String())

	// Forward: registered but undocumented.
	for name := range registered {
		if strings.HasSuffix(name, ".") {
			// Family prefix (e.g. "aedd.tenant."): documented if any doc
			// token extends it.
			covered := false
			for tok := range documented {
				if strings.HasPrefix(tok, name) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("metric family %q is registered but no %s* name appears in the docs", name, name)
			}
			continue
		}
		if !documented[name] {
			t.Errorf("metric %q is registered but missing from docs/OBSERVABILITY.md and docs/SERVICE.md", name)
		}
	}

	// Reverse: table rows in the metric sections naming metrics that no
	// longer exist. Only `|`-prefixed table lines are checked — prose may
	// legitimately mention fragments — and only plausible metric tokens
	// (lowercase, dotted, no placeholders) are held to it.
	sections := []struct{ path, from string }{
		{docPaths[0], "## Metric names"},
		{docPaths[1], "## 5. Observability"},
	}
	for _, sec := range sections {
		body := docs[sec.path]
		i := strings.Index(body, sec.from)
		if i < 0 {
			t.Fatalf("%s: section %q not found — update this test's anchors", sec.path, sec.from)
		}
		body = body[i+len(sec.from):]
		if j := strings.Index(body, "\n## "); j >= 0 {
			body = body[:j]
		}
		var tables strings.Builder
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "|") {
				tables.WriteString(line)
				tables.WriteString("\n")
			}
		}
		for tok := range docTokens(tables.String()) {
			if !metricToken(tok) {
				continue
			}
			if registered[tok] {
				continue
			}
			// A token extending a registered family prefix is fine.
			prefixed := false
			for name := range registered {
				if strings.HasSuffix(name, ".") && strings.HasPrefix(tok, name) {
					prefixed = true
					break
				}
			}
			if !prefixed {
				t.Errorf("%s documents metric %q, which is not registered anywhere in the source", sec.path, tok)
			}
		}
	}

	checkEventKindDocs(t, docPaths[0], docs[docPaths[0]])
	checkSpanDocs(t, docPaths[0], docs[docPaths[0]], started)
}

// checkSpanDocs holds the Span taxonomy table in doc (the table after
// the "## Span taxonomy" heading) to the span names the source starts,
// in both directions. The first cell of each row names the span in
// backticks.
func checkSpanDocs(t *testing.T, path, doc string, started map[string]bool) {
	t.Helper()
	if len(started) < 10 {
		t.Fatalf("found only %d started spans — the source scan is broken", len(started))
	}
	documented := tableNames(t, path, doc, "## Span taxonomy")
	for name := range started {
		if !documented[name] {
			t.Errorf("span %q is started in the source but has no row in the %s span table", name, path)
		}
	}
	for name := range documented {
		if !started[name] {
			t.Errorf("%s documents span %q, which no non-test source starts", path, name)
		}
	}
}

// tableNames returns the backticked names in the first cell of each row
// of the first markdown table after anchor in doc.
func tableNames(t *testing.T, path, doc, anchor string) map[string]bool {
	t.Helper()
	i := strings.Index(doc, anchor)
	if i < 0 {
		t.Fatalf("%s: %q not found — update this test's anchor", path, anchor)
	}
	names := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(doc[i:], "\n")[1:] {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		for _, m := range codeSpanRe.FindAllStringSubmatch(cells[1], -1) {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s: table after %q is empty — the table scan is broken", path, anchor)
	}
	return names
}

// checkEventKindDocs holds the recorder event table in doc (the table
// after the "Event taxonomy" line) to eventKindNames in both
// directions. The first cell of each row names one or more kinds in
// backticks; EvNone is never recorded and needs no row.
func checkEventKindDocs(t *testing.T, path, doc string) {
	t.Helper()
	const anchor = "Event taxonomy (`obs.EventKind`)"
	documented := tableNames(t, path, doc, anchor)
	registered := map[string]bool{}
	for k, name := range eventKindNames {
		if EventKind(k) == EvNone {
			continue
		}
		registered[name] = true
		if !documented[name] {
			t.Errorf("recorder event kind %q has no row in the %s event table", name, path)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("%s documents recorder event kind %q, which is not registered in eventKindNames", path, name)
		}
	}
}

var (
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	braceRe    = regexp.MustCompile(`^(.*)\{([^}]*)\}(.*)$`)
)

// docTokens extracts the candidate metric names from markdown: every
// inline backtick code span, split on whitespace and commas, with one
// level of {a,b,c} brace shorthand expanded. Fenced code blocks are
// skipped and spans are paired per line — a multi-line match would
// invert the pairing after every ``` fence.
func docTokens(text string) map[string]bool {
	out := map[string]bool{}
	var spans []string
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
		}
	}
	for _, span := range spans {
		for _, field := range strings.FieldsFunc(span, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\n'
		}) {
			var expanded []string
			if bm := braceRe.FindStringSubmatch(field); bm != nil {
				for _, alt := range strings.Split(bm[2], ",") {
					expanded = append(expanded, bm[1]+alt+bm[3])
				}
			} else {
				expanded = strings.Split(field, ",")
			}
			for _, tok := range expanded {
				if tok = strings.Trim(tok, ",;:"); tok != "" {
					out[tok] = true
				}
			}
		}
	}
	return out
}

// metricToken reports whether a doc token plausibly names a concrete
// metric: dotted, all lowercase, and free of placeholders (`<t>`,
// `cfgN`, `*`) and paths.
func metricToken(tok string) bool {
	if !strings.Contains(tok, ".") {
		return false
	}
	if strings.ContainsAny(tok, "<>*/%(){}=") {
		return false
	}
	if tok != strings.ToLower(tok) {
		return false
	}
	return true
}
