// Package sqldb implements the embedded relational DBMS that stands in
// for PostgreSQL in this reproduction. It provides a SQL dialect large
// enough for every query the paper issues: the record/tile-mapping
// tables of §3.1, B-tree/R-tree index creation, the tile join, the
// spatial window query used by both tile-spatial and dynamic-box
// fetching, and the UPDATE path for the §4 update model.
//
// The stack is classical: lexer → recursive-descent parser → rule-based
// planner (index selection, join strategy) → Volcano-style executor
// over heap files from internal/storage.
package sqldb

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // ( ) , . * = != < <= > >= + - / ?
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents as written
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "ON": true, "USING": true,
	"JOIN": true, "INNER": true, "AS": true, "ORDER": true, "BY": true,
	"ASC": true, "DESC": true, "LIMIT": true, "GROUP": true,
	"UPDATE": true, "SET": true, "DELETE": true, "TRUE": true, "FALSE": true,
	"INT": true, "DOUBLE": true, "TEXT": true, "BOOL": true,
	"BTREE": true, "RTREE": true, "EXPLAIN": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"INTERSECTS": true, "DROP": true, "IF": true, "EXISTS": true,
	"BETWEEN": true,
}

// lex tokenizes src. Errors carry byte positions for diagnostics.
func lex(src string) ([]token, error) {
	var toks []token
	i, n := 0, len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case isAlpha(c):
			start := i
			for i < n && (isAlpha(src[i]) || isDigit(src[i])) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(src[i+1])):
			start := i
			isFloat := false
			for i < n && (isDigit(src[i]) || src[i] == '.' || src[i] == 'e' ||
				src[i] == 'E' || ((src[i] == '+' || src[i] == '-') && i > start &&
				(src[i-1] == 'e' || src[i-1] == 'E'))) {
				if src[i] == '.' || src[i] == 'e' || src[i] == 'E' {
					isFloat = true
				}
				i++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // '' escape
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqldb: unterminated string at %d", start)
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '!' || c == '<' || c == '>':
			start := i
			if i+1 < n && src[i+1] == '=' {
				toks = append(toks, token{tokSymbol, src[i : i+2], start})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sqldb: stray '!' at %d", start)
			} else if c == '<' && i+1 < n && src[i+1] == '>' {
				toks = append(toks, token{tokSymbol, "!=", start})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, string(c), start})
				i++
			}
		case strings.ContainsRune("(),.*=+-/?;", rune(c)):
			if c == ';' { // statement terminator: ignore
				i++
				continue
			}
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
