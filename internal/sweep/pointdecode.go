package sweep

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// pointField is one Point field as json.Marshal writes it: its key and
// the accessor of its type. Extra, the one map, has no accessor.
type pointField struct {
	key   string
	int   func(*Point) *int
	float func(*Point) *float64
	str   func(*Point) *string
}

// pointFields lists Point's fields in struct order, which is the order
// json.Marshal writes them in. It describes a point both ways:
// decodePoint reads a cache entry's point by it and Result.JSON writes
// each point by walking it, so TestPointFieldsMatchStruct, which keeps
// it in step with Point's json tags, guards the reader and the writer.
var pointFields = [...]pointField{
	{key: "x", int: func(p *Point) *int { return &p.X }},
	{key: "label", str: func(p *Point) *string { return &p.Label }},
	{key: "throughput", float: func(p *Point) *float64 { return &p.Throughput }},
	{key: "minPerCore", float: func(p *Point) *float64 { return &p.MinPerCore }},
	{key: "maxPerCore", float: func(p *Point) *float64 { return &p.MaxPerCore }},
	{key: "rel", float: func(p *Point) *float64 { return &p.Rel }},
	{key: "baselineOps", float: func(p *Point) *float64 { return &p.BaselineOps }},
	{key: "loadedOps", float: func(p *Point) *float64 { return &p.LoadedOps }},
	{key: "backoff", int: func(p *Point) *int { return &p.Backoff }},
	{key: "powerMW", float: func(p *Point) *float64 { return &p.PowerMW }},
	{key: "pjPerOp", float: func(p *Point) *float64 { return &p.PJPerOp }},
	{key: "deltaPct", float: func(p *Point) *float64 { return &p.DeltaPct }},
	{key: "paperPJ", float: func(p *Point) *float64 { return &p.PaperPJ }},
	{key: "params", str: func(p *Point) *string { return &p.Params }},
	{key: "areaKGE", float: func(p *Point) *float64 { return &p.AreaKGE }},
	{key: "overheadPct", float: func(p *Point) *float64 { return &p.OverheadPct }},
	{key: "paperKGE", float: func(p *Point) *float64 { return &p.PaperKGE }},
	{key: "extra"},
}

// decodePoint decodes b when it is laid out as json.Marshal writes a
// Point: {"x":… first, then the other fields in struct order, each at
// most once, with no whitespace, and Extra's keys strictly ascending.
// Numbers are scanned to the JSON grammar and parsed by strconv, as
// json.Unmarshal parses them; a string holding a backslash or a
// non-ASCII byte is handed to json.Unmarshal, so escapes and invalid
// UTF-8 read exactly as they would there. Anything else is not ok.
// Whatever it accepts, it decodes as json.Unmarshal does
// (FuzzDecodePoint).
func decodePoint(b []byte) (Point, bool) {
	d := pointDecoder{b: b}
	var p Point
	if !d.eat('{') {
		return Point{}, false
	}
	next := 0 // index of the first field the next key may name
	for {
		key, ok := d.key()
		if !ok {
			return Point{}, false
		}
		i := next
		for i < len(pointFields) && pointFields[i].key != string(key) {
			i++
		}
		if i == len(pointFields) || (next == 0 && i != 0) {
			return Point{}, false
		}
		next = i + 1
		switch f := &pointFields[i]; {
		case f.int != nil:
			*f.int(&p), ok = d.int()
		case f.float != nil:
			*f.float(&p), ok = d.float()
		case f.str != nil:
			*f.str(&p), ok = d.string()
		default:
			p.Extra, ok = d.extra()
		}
		if !ok {
			return Point{}, false
		}
		if d.eat('}') {
			break
		}
		if !d.eat(',') {
			return Point{}, false
		}
	}
	if d.pos != len(b) {
		return Point{}, false
	}
	return p, true
}

// pointDecoder scans one canonical point body.
type pointDecoder struct {
	b   []byte
	pos int
}

// eat consumes c if it is the next byte.
func (d *pointDecoder) eat(c byte) bool {
	if d.pos < len(d.b) && d.b[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// key scans a field name and its colon and returns the bytes between
// the quotes. No field name holds an escape, so a key that does
// matches none.
func (d *pointDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.pos
	for d.pos < len(d.b) && d.b[d.pos] != '"' {
		d.pos++
	}
	key := d.b[start:d.pos]
	if !d.eat('"') || !d.eat(':') {
		return nil, false
	}
	return key, true
}

// number scans one JSON number.
func (d *pointDecoder) number() ([]byte, bool) {
	b, i := d.b, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[d.pos:i]
	d.pos = i
	return tok, true
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int scans a number into an int field; a fraction, an exponent or an
// overflow fails it, as it fails json.Unmarshal.
func (d *pointDecoder) int() (int, bool) {
	tok, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(string(tok))
	return v, err == nil
}

// float scans a number into a float64 field.
func (d *pointDecoder) float() (float64, bool) {
	tok, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// string scans a JSON string. Plain ASCII is copied out as is; a
// string holding a backslash or a byte of 0x80 or above goes to
// json.Unmarshal.
func (d *pointDecoder) string() (string, bool) {
	q := d.pos
	if !d.eat('"') {
		return "", false
	}
	for i := d.pos; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := string(d.b[d.pos:i])
			d.pos = i + 1
			return s, true
		case c == '\\' || c >= utf8.RuneSelf:
			return d.unmarshalString(q)
		case c < 0x20:
			return "", false
		}
	}
	return "", false
}

// unmarshalString decodes the string whose opening quote is at d.b[q]
// with json.Unmarshal.
func (d *pointDecoder) unmarshalString(q int) (string, bool) {
	for i := q + 1; i < len(d.b); i++ {
		switch d.b[i] {
		case '\\':
			i++
		case '"':
			var s string
			if json.Unmarshal(d.b[q:i+1], &s) != nil {
				return "", false
			}
			d.pos = i + 1
			return s, true
		}
	}
	return "", false
}

// extra scans the Extra map: at least one entry, keys strictly
// ascending, as json.Marshal writes a non-empty map.
func (d *pointDecoder) extra() (map[string]float64, bool) {
	if !d.eat('{') {
		return nil, false
	}
	m := map[string]float64{}
	prev := ""
	for {
		k, ok := d.string()
		if !ok || (len(m) > 0 && k <= prev) || !d.eat(':') {
			return nil, false
		}
		if m[k], ok = d.float(); !ok {
			return nil, false
		}
		prev = k
		if d.eat('}') {
			return m, true
		}
		if !d.eat(',') {
			return nil, false
		}
	}
}
