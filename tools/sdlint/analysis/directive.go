package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives. A diagnostic is suppressed by
//
//	//sdlint:allow <key> <reason>
//
// where <key> is the reporting analyzer's name or one of its AllowKeys,
// and <reason> is mandatory prose explaining why the flagged code is
// legitimate. The directive covers:
//
//   - the line it is written on (end-of-line comment),
//   - the line immediately below a standalone comment group, and
//   - the entire function, when it appears in a func declaration's doc
//     comment.
//
// A directive with no reason does NOT suppress: the diagnostic fires with
// a note that the reason is missing, so "because I said so" suppressions
// cannot land silently.

// allowDirective is one parsed //sdlint:allow comment.
type allowDirective struct {
	key      string
	reason   string
	fromLine int // first covered line
	toLine   int // last covered line
	pos      token.Pos
}

// collectAllows gathers every allow directive in the file, with its line
// coverage resolved against the AST and its args split into the analyzer
// key and the mandatory reason.
func collectAllows(fset *token.FileSet, file *ast.File) []allowDirective {
	const prefix = "//sdlint:allow"
	// Doc-comment directives cover their whole declaration.
	docRange := make(map[*ast.CommentGroup][2]int)
	ast.Inspect(file, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			return true
		}
		docRange[fd.Doc] = [2]int{
			fset.Position(fd.Pos()).Line,
			fset.Position(fd.End()).Line,
		}
		return true
	})
	code := codeLines(fset, file)

	var out []allowDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, prefix)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			key, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
			if key == "" {
				continue
			}
			d := allowDirective{key: key, reason: strings.TrimSpace(reason), pos: c.Pos()}
			if r, isDoc := docRange[cg]; isDoc {
				d.fromLine, d.toLine = r[0], r[1]
			} else {
				// An end-of-line comment (code precedes it on the line)
				// covers its own line only; the last line of a standalone
				// group also covers the line below it.
				line := fset.Position(c.Pos()).Line
				d.fromLine, d.toLine = line, line
				if !code[line] && line == fset.Position(cg.End()).Line {
					d.toLine = line + 1
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// codeLines reports which lines hold code tokens, distinguishing
// end-of-line comments from standalone comment lines.
func codeLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// ApplySuppression filters diags through the files' //sdlint:allow
// directives for the given analyzer. Directives carrying no reason do
// not suppress: the original diagnostic survives, and the bare directive
// earns its own diagnostic at the directive's position — a first-class
// finding rather than a note buried in another message — so "because I
// said so" suppressions cannot land silently.
func ApplySuppression(fset *token.FileSet, files []*ast.File, a *Analyzer, diags []Diagnostic) []Diagnostic {
	keys := map[string]bool{a.Name: true}
	for _, k := range a.AllowKeys {
		keys[k] = true
	}
	byFile := make(map[string][]allowDirective)
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		byFile[name] = collectAllows(fset, f)
	}
	var out []Diagnostic
	bare := make(map[token.Pos]bool) // bare directives already reported, by position
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range byFile[pos.Filename] {
			if !keys[dir.key] || pos.Line < dir.fromLine || pos.Line > dir.toLine {
				continue
			}
			if dir.reason == "" {
				if !bare[dir.pos] {
					bare[dir.pos] = true
					out = append(out, Diagnostic{
						Pos:     dir.pos,
						Message: fmt.Sprintf("sdlint:allow %s ignored: missing reason (write //sdlint:allow %s <reason>)", dir.key, dir.key),
					})
				}
				continue
			}
			suppressed = true
			break
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}
