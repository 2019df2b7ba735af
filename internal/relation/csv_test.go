package relation

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// carCSV is a small CarDB relation as aimq-datagen writes it.
const carCSV = `Make,Model,Year,Price,Mileage,Location,Color
categorical,categorical,categorical,numeric,numeric,categorical,categorical
Chevrolet,Silverado,1999,11100,79500,Philadelphia,White
Honda,Accord,2000,9400,72000,Los Angeles,Silver
Ford,Focus,2002,7800,44000,Portland,Black
Ford,Escort,1989,1300,179000,Denver,Black
Nissan,Frontier,1999,8600,64500,Chicago,White
Chevrolet,Silverado,2004,19500,21500,Austin,Black
`

// TestReadCSVInternsValues: equal categorical values read from different
// rows share one string, so the relation holds each distinct value once and
// no field keeps its CSV line alive.
func TestReadCSVInternsValues(t *testing.T) {
	r, err := ReadCSV(strings.NewReader(carCSV))
	if err != nil {
		t.Fatal(err)
	}
	data := func(row, attr int) *byte { return unsafe.StringData(r.Tuple(row)[attr].Str) }
	for _, c := range []struct{ row1, row2, attr int }{
		{0, 5, 0}, // Chevrolet
		{0, 5, 1}, // Silverado
		{2, 3, 0}, // Ford
		{0, 4, 2}, // 1999
		{2, 5, 6}, // Black
	} {
		if data(c.row1, c.attr) != data(c.row2, c.attr) {
			t.Errorf("rows %d and %d hold %q in separate strings", c.row1, c.row2, r.Tuple(c.row1)[c.attr].Str)
		}
	}
	// Interning is per attribute: White (Color) and the other columns do
	// not mix, and distinct values keep distinct strings.
	if data(0, 0) == data(1, 0) {
		t.Errorf("Chevrolet and Honda share a string")
	}
}

// FuzzReadCSV feeds ReadCSV arbitrary bytes. It must never panic, and any
// relation it accepts must survive a write/read/write cycle byte for byte:
// WriteCSV(ReadCSV(WriteCSV(r))) == WriteCSV(r). The bytes are compared, not
// the tuples, because rendering is lossy by design (−0 renders as 0).
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		carCSV,
		"A,B\ncategorical,numeric\n\"x,y\",1\n\"say \"\"hi\"\"\",2\n",
		"A,B\ncategorical,numeric\nNULL,NULL\n,\nNULL,-0\n",
		"A,B\n categorical , numeric\nx,NaN\ny,-Inf\nz,1e308\nw,0x1p-2\n",
		"A,B\ncategorical,numeric\n\"line\r\nbreak\",3\n\"cr\ronly\",4\r\n",
		"A,B\ncategorical,numeric\nx,1\ny\n",
		"A,B\ncategorical,numeric\nx,1,2\n",
		"A\ncategorical\n\"\"\n\" NULL\"\nNULL\n",
		"A,A\ncategorical,numeric\n",
		"A,B\ncategorical,numeric\nx,abc\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		r, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteCSV(&first, r); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV rejects WriteCSV's output %q: %v", first.String(), err)
		}
		if err := WriteCSV(&second, back); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write/read/write changed the bytes:\n%q\n%q", first.String(), second.String())
		}
	})
}
