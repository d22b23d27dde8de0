package sim

import "fmt"

// Label is a diagnostic string — a park reason or a fiber name — kept as
// a constant format plus its operands and rendered only when a report
// asks for it (Parked, a deadlock error, a fiber panic, Fiber.Name). A
// fiber parks on every remote call and page-lock wait, so formatting
// eagerly would cost an fmt.Sprintf per park for text nobody reads.
// Labels are plain values: building one, storing it on a fiber and
// copying it allocate nothing.
type Label struct {
	format string
	text   string       // the %s operand; with no format, the whole label
	value  fmt.Stringer // the %v operand
	n      [2]int64     // the integer operands (%d, %x), in order
}

// Text returns a label that renders as s, verbatim.
func Text(s string) Label { return Label{text: s} }

// Textf returns a label that renders as fmt.Sprintf(format, s).
func Textf(format, s string) Label { return Label{format: format, text: s} }

// Labelf returns a label that renders as fmt.Sprintf(format, ...) with
// the %v verb taking v and the integer verbs (%d, %x, %#x) taking n in
// order. At most two integer operands fit; v must not allocate when
// converted (the small integer kinds that label remote calls do not).
func Labelf(format string, v fmt.Stringer, n ...int64) Label {
	l := Label{format: format, value: v}
	if len(n) > len(l.n) {
		panic("sim: Labelf takes at most two integer operands")
	}
	copy(l.n[:], n)
	return l
}

// String renders the label.
func (l Label) String() string {
	if l.format == "" {
		return l.text
	}
	args := make([]any, 0, 1+len(l.n))
	next := 0
	for i := 0; i < len(l.format); i++ {
		if l.format[i] != '%' {
			continue
		}
		// Skip flags and width up to the verb.
		for i++; i < len(l.format) && isVerbModifier(l.format[i]); i++ {
		}
		if i == len(l.format) {
			break
		}
		switch l.format[i] {
		case '%':
		case 'v':
			args = append(args, l.value)
		case 's', 'q':
			args = append(args, l.text)
		default:
			if next == len(l.n) {
				break // fmt reports the operand as missing
			}
			if c := l.format[i]; c == 'x' || c == 'X' {
				args = append(args, uint64(l.n[next]))
			} else {
				args = append(args, l.n[next])
			}
			next++
		}
	}
	return fmt.Sprintf(l.format, args...)
}

func isVerbModifier(c byte) bool {
	return c == '#' || c == '+' || c == '-' || c == ' ' || c == '.' || ('0' <= c && c <= '9')
}
