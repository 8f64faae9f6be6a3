package uqsim

import (
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// simFeatures maps each optional feature of internal/sim to the file that
// owns it (DESIGN.md decision 17). The dispatch core holds one pointer per
// feature and asks the feature's own methods; no other file reads or writes
// a field of a feature's type.
var simFeatures = map[string]string{
	"policies":   "resilience.go",
	"overload":   "overload.go",
	"netFaults":  "faults.go",
	"geography":  "region.go",
	"depRegions": "region.go",
	"fluidTier":  "hybrid.go",
}

// TestFeatureIsolation type-checks the module like TestAPIGuard and fails
// when a field of one of sim's feature types is used outside the file that
// owns the feature, or when a listed type is missing, is not a struct, or
// is declared in another file.
func TestFeatureIsolation(t *testing.T) {
	l := newAPILoader(t)
	sim := l.pkgs[apiModule+"/internal/sim"]
	if sim == nil {
		t.Fatal("internal/sim was not loaded")
	}
	owner := map[*types.Var]string{} // field -> its feature type
	for _, name := range sortedKeys(simFeatures) {
		obj := sim.types.Scope().Lookup(name)
		if obj == nil {
			t.Errorf("simFeatures[%q]: sim declares no such type; update the map", name)
			continue
		}
		if file := filepath.Base(l.fset.Position(obj.Pos()).Filename); file != simFeatures[name] {
			t.Errorf("sim.%s is declared in %s; its feature lives in %s", name, file, simFeatures[name])
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Errorf("sim.%s is not a struct", name)
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			owner[st.Field(i)] = name
		}
	}
	var leaks []string
	for _, p := range l.order {
		for id, obj := range p.info.Uses {
			v, ok := obj.(*types.Var)
			if !ok || owner[v] == "" {
				continue
			}
			feature := owner[v]
			if pos := l.fset.Position(id.Pos()); filepath.Base(pos.Filename) != simFeatures[feature] {
				leaks = append(leaks, pos.String()+": field "+v.Name()+" of sim."+feature+" is used outside "+simFeatures[feature]+"; ask a method there instead")
			}
		}
	}
	sort.Strings(leaks)
	for _, leak := range leaks {
		t.Error(leak)
	}
}
