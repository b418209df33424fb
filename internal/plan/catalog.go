package plan

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cdnconsistency/internal/traceimport"
)

// LoadFile parses one plan file. A plan with an import has its bundle
// resolved here, relative to the plan file's directory — Validate never
// touches the filesystem, so resolution lives with the file loader.
func LoadFile(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	p, err := ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.Import != "" {
		spec := p.Import
		if !filepath.IsAbs(spec) {
			spec = filepath.Join(filepath.Dir(path), spec)
		}
		b, _, err := traceimport.LoadAny(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: import: %w", path, err)
		}
		p.Bundle = b
	}
	return p, nil
}

// LoadDir loads every *.json plan in dir (non-recursive), sorted by
// filename so catalog order — and therefore report order — is stable. An
// empty catalog and duplicate plan names are errors.
func LoadDir(dir string) ([]*Plan, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("plan: no *.json plans in %s", dir)
	}
	var (
		plans []*Plan
		seen  = map[string]string{}
	)
	for _, name := range names {
		p, err := LoadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[p.Name]; dup {
			return nil, fmt.Errorf("plan: %s and %s both define plan %q", prev, name, p.Name)
		}
		seen[p.Name] = name
		plans = append(plans, p)
	}
	return plans, nil
}
