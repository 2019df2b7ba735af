package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteCSV writes the relation as CSV with a two-row header: the first row
// carries attribute names, the second their types ("categorical"/"numeric").
// The typed header lets ReadCSV reconstruct the schema without guessing.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	s := r.Schema()
	names := s.Names()
	if err := cw.Write(names); err != nil {
		return fmt.Errorf("write csv header: %w", err)
	}
	types := make([]string, s.Arity())
	for i := range types {
		types[i] = s.Type(i).String()
	}
	if err := cw.Write(types); err != nil {
		return fmt.Errorf("write csv type row: %w", err)
	}
	row := make([]string, s.Arity())
	for _, t := range r.Tuples() {
		for i, v := range t {
			row[i] = v.Render(s.Type(i))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation written by WriteCSV.
func ReadCSV(rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = false
	names, err := readRecord(cr)
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	typesRow, err := readRecord(cr)
	if err != nil {
		return nil, fmt.Errorf("read csv type row: %w", err)
	}
	if len(typesRow) != len(names) {
		return nil, fmt.Errorf("csv type row has %d fields, header has %d", len(typesRow), len(names))
	}
	attrs := make([]Attribute, len(names))
	for i, n := range names {
		var t AttrType
		switch strings.TrimSpace(typesRow[i]) {
		case "categorical":
			t = Categorical
		case "numeric":
			t = Numeric
		default:
			return nil, fmt.Errorf("csv type row: unknown type %q for attribute %q", typesRow[i], n)
		}
		attrs[i] = Attribute{Name: n, Type: t}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	// interned[i] holds one copy of each distinct value of attribute i. A
	// record's fields are substrings of one line-sized string, so keeping a
	// field would keep its whole line alive; the copy keeps only the value,
	// once per attribute however many rows repeat it.
	interned := make([]map[string]string, schema.Arity())
	for i := range interned {
		interned[i] = make(map[string]string)
	}
	for line := 3; ; line++ {
		rec, err := readRecord(cr)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read csv line %d: %w", line, err)
		}
		t := make(Tuple, schema.Arity())
		for i, field := range rec {
			v, err := ParseValue(field, schema.Type(i))
			if err != nil {
				return nil, fmt.Errorf("csv line %d, attribute %s: %w", line, names[i], err)
			}
			if !v.Null && schema.Type(i) == Categorical {
				s, ok := interned[i][v.Str]
				if !ok {
					s = strings.Clone(v.Str)
					interned[i][s] = s
				}
				v.Str = s
			}
			t[i] = v
		}
		rel.Append(t)
	}
	return rel, nil
}

// readRecord reads one CSV record with every CR that precedes an LF
// dropped. encoding/csv drops the CR of the CR LF ending each line, quoted
// fields included, so a field read from "\r\r\n" keeps a CR LF that its
// next write and read would lose; dropping them here makes every field
// ReadCSV accepts one that WriteCSV reproduces.
func readRecord(cr *csv.Reader) ([]string, error) {
	rec, err := cr.Read()
	for i, f := range rec {
		for strings.Contains(f, "\r\n") {
			f = strings.ReplaceAll(f, "\r\n", "\n")
		}
		rec[i] = f
	}
	return rec, err
}

// SaveCSV writes the relation to the named file.
func SaveCSV(path string, r *Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save relation: %w", err)
	}
	defer f.Close()
	if err := WriteCSV(f, r); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSV reads a relation from the named file.
func LoadCSV(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load relation: %w", err)
	}
	defer f.Close()
	return ReadCSV(f)
}
