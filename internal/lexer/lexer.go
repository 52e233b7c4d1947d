package lexer

import (
	"fmt"
	"strconv"
	"strings"
)

// Lexer scans SAQL source text into tokens. It skips whitespace and //
// line comments and tracks line/column positions for error reporting.
type Lexer struct {
	src  string
	pos  int // byte offset of next rune
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans the entire input, returning all tokens up to and including
// EOF, or the first lexical error.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	// SAQL runs 2–5.5 source bytes per token (demo queries and conformance
	// corpus); a third of len(src) holds most queries' tokens in the one
	// allocation, and a denser source just grows it once.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Type == EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next scans and returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	pos := Pos{Line: l.line, Col: l.col, Off: l.pos}
	if l.pos >= len(l.src) {
		return Token{Type: EOF, Pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case c == '$':
		// Queryset parameter reference: $name. Only meaningful inside a
		// queryset document, where the parser substitutes the parameter's
		// literal before the query is compiled.
		l.advance()
		if !isIdentStart(l.peekByte()) {
			return Token{}, fmt.Errorf("lexer: %s: '$' must be followed by a parameter name", pos)
		}
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		return Token{Type: PARAM, Text: l.src[start:l.pos], Pos: pos}, nil

	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if kw, ok := keywords[strings.ToLower(text)]; ok {
			return Token{Type: kw, Text: text, Pos: pos}, nil
		}
		return Token{Type: IDENT, Text: text, Pos: pos}, nil

	case isDigit(c):
		start := l.pos
		isInt := true
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.advance()
		}
		if l.peekByte() == '.' && isDigit(l.peekByteAt(1)) {
			isInt = false
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		if l.peekByte() == 'e' || l.peekByte() == 'E' {
			// Scientific notation: 1e6, 2.5E-3.
			save := l.pos
			l.advance()
			if l.peekByte() == '+' || l.peekByte() == '-' {
				l.advance()
			}
			if isDigit(l.peekByte()) {
				isInt = false
				for l.pos < len(l.src) && isDigit(l.peekByte()) {
					l.advance()
				}
			} else {
				l.pos = save // 'e' begins an identifier, not an exponent
			}
		}
		text := l.src[start:l.pos]
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, fmt.Errorf("lexer: %s: bad number %q: %v", pos, text, err)
		}
		return Token{Type: NUMBER, Text: text, Num: f, IsInt: isInt, Pos: pos}, nil

	case c == '"' || c == '\'':
		quote := c
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("lexer: %s: unterminated string", pos)
			}
			ch := l.advance()
			if ch == quote {
				break
			}
			if ch == '\\' && l.pos < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\', '"', '\'':
					sb.WriteByte(esc)
				default:
					sb.WriteByte('\\')
					sb.WriteByte(esc)
				}
				continue
			}
			if ch == '\n' {
				return Token{}, fmt.Errorf("lexer: %s: newline in string", pos)
			}
			sb.WriteByte(ch)
		}
		return Token{Type: STRING, Text: sb.String(), Pos: pos}, nil
	}

	// Operators and punctuation.
	two := func(t TokenType, text string) (Token, error) {
		l.advance()
		l.advance()
		return Token{Type: t, Text: text, Pos: pos}, nil
	}
	one := func(t TokenType) (Token, error) {
		l.advance()
		return Token{Type: t, Text: string(c), Pos: pos}, nil
	}
	n := l.peekByteAt(1)
	switch c {
	case ':':
		if n == '=' {
			return two(ASSIGN, ":=")
		}
		return Token{}, fmt.Errorf("lexer: %s: unexpected ':'", pos)
	case '=':
		if n == '=' {
			return two(EQEQ, "==")
		}
		return one(EQ)
	case '!':
		if n == '=' {
			return two(NEQ, "!=")
		}
		return one(NOT)
	case '<':
		if n == '=' {
			return two(LE, "<=")
		}
		return one(LT)
	case '>':
		if n == '=' {
			return two(GE, ">=")
		}
		return one(GT)
	case '&':
		if n == '&' {
			return two(ANDAND, "&&")
		}
		return Token{}, fmt.Errorf("lexer: %s: unexpected '&' (did you mean '&&'?)", pos)
	case '|':
		if n == '|' {
			return two(OROR, "||")
		}
		return one(PIPE)
	case '-':
		if n == '>' {
			return two(ARROW, "->")
		}
		return one(MINUS)
	case '+':
		return one(PLUS)
	case '*':
		return one(STAR)
	case '/':
		return one(SLASH)
	case '%':
		return one(PERCENT)
	case '#':
		return one(HASH)
	case '(':
		return one(LPAREN)
	case ')':
		return one(RPAREN)
	case '[':
		return one(LBRACKET)
	case ']':
		return one(RBRACKET)
	case '{':
		return one(LBRACE)
	case '}':
		return one(RBRACE)
	case ',':
		return one(COMMA)
	case '.':
		return one(DOT)
	case ';':
		return one(SEMI)
	}
	return Token{}, fmt.Errorf("lexer: %s: unexpected character %q", pos, string(c))
}
