// Package loader builds LaPushDB databases from CSV files and binary
// snapshots. It is shared by cmd/lapush and cmd/lapushd so the two
// binaries agree on the CSV dialect and the snapshot format.
//
// CSV format: a header row names the columns; the LAST column of every
// row is the tuple probability (the probability column's header name is
// ignored). Probabilities must parse as floats in [0, 1]; rows of
// deterministic relations must carry probability 1 (Relation.Insert
// checks both).
package loader

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lapushdb"
)

// LoadCSV reads one relation from r into db, streaming record by record
// so arbitrarily large files load in bounded memory. Errors are prefixed
// with the 1-based CSV line number (the header is line 1).
func LoadCSV(db *lapushdb.DB, name string, r io.Reader, det bool) error {
	rd := csv.NewReader(r)
	rd.TrimLeadingSpace = true
	rd.FieldsPerRecord = -1 // field counts are checked per record below
	rd.ReuseRecord = true   // record values are copied into owned slices before insert

	header, err := rd.Read()
	if err == io.EOF || (err == nil && len(header) < 2) {
		return fmt.Errorf("need a header row with at least one column plus probability")
	}
	if err != nil {
		return err
	}
	cols := append([]string(nil), header[:len(header)-1]...)
	var rel *lapushdb.Relation
	if det {
		rel, err = db.CreateDeterministicRelation(name, cols...)
	} else {
		rel, err = db.CreateRelation(name, cols...)
	}
	if err != nil {
		return err
	}
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		ln, _ := rd.FieldPos(0)
		if len(rec) != len(cols)+1 {
			return fmt.Errorf("line %d: %d fields, want %d", ln, len(rec), len(cols)+1)
		}
		p, err := strconv.ParseFloat(rec[len(cols)], 64)
		if err != nil {
			return fmt.Errorf("line %d: bad probability %q", ln, rec[len(cols)])
		}
		vals := make([]any, len(cols))
		for i, v := range rec[:len(cols)] {
			vals[i] = v
		}
		if err := rel.Insert(p, vals...); err != nil {
			return fmt.Errorf("line %d: %v", ln, err)
		}
	}
}

// LoadCSVFile is LoadCSV reading from a file path.
func LoadCSVFile(db *lapushdb.DB, name, file string, det bool) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadCSV(db, name, f, det)
}

// LoadSnapshotFile restores a database snapshot written by
// SaveSnapshotFile (or lapushdb.DB.Save).
func LoadSnapshotFile(path string) (*lapushdb.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lapushdb.Load(f)
}

// SaveSnapshotFile writes a database snapshot to path.
func SaveSnapshotFile(db *lapushdb.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseRelSpec splits a "Name=file.csv" flag value.
func ParseRelSpec(spec string) (name, file string, err error) {
	name, file, ok := strings.Cut(spec, "=")
	if !ok || name == "" || file == "" {
		return "", "", fmt.Errorf("bad relation spec %q, want Name=file.csv", spec)
	}
	return name, file, nil
}

// ApplyKeySpec declares a primary key from a "Rel=col1,col2" flag value.
func ApplyKeySpec(db *lapushdb.DB, spec string) error {
	name, cols, ok := strings.Cut(spec, "=")
	if !ok || name == "" || cols == "" {
		return fmt.Errorf("bad key spec %q, want Rel=col1,col2", spec)
	}
	r := db.Relation(name)
	if r == nil {
		return fmt.Errorf("unknown relation %s in key spec", name)
	}
	r.SetKey(strings.Split(cols, ",")...)
	return nil
}

// Build assembles a database from flag-style inputs: either a snapshot
// path, or a set of Name=file.csv specs with optional deterministic
// markers and key specs. Exactly the loading pipeline both binaries
// share.
func Build(snapshot string, relSpecs []string, detRels []string, keySpecs []string) (*lapushdb.DB, error) {
	var db *lapushdb.DB
	if snapshot != "" {
		var err error
		db, err = LoadSnapshotFile(snapshot)
		if err != nil {
			return nil, fmt.Errorf("load snapshot: %w", err)
		}
	} else {
		db = lapushdb.Open()
		det := map[string]bool{}
		for _, d := range detRels {
			det[d] = true
		}
		for _, spec := range relSpecs {
			name, file, err := ParseRelSpec(spec)
			if err != nil {
				return nil, err
			}
			if err := LoadCSVFile(db, name, file, det[name]); err != nil {
				return nil, fmt.Errorf("load %s: %w", name, err)
			}
		}
	}
	for _, spec := range keySpecs {
		if err := ApplyKeySpec(db, spec); err != nil {
			return nil, err
		}
	}
	return db, nil
}
