package chaos

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"uqsim/internal/config"
)

// TestWorldModel pins what the generator may break in three shipped
// directories: machines, the DVFS machines with their ranges, failure
// domains then regions with their sizes (a region counts the members of
// its racks), and services with their instance counts.
func TestWorldModel(t *testing.T) {
	for _, c := range []struct{ dir, want string }{
		{"threeregion", "{machines:[east-0 east-1 west-0 eu-0] freqMachines:[] " +
			"domains:[rack-east east west eu] domainSize:map[east:2 eu:1 rack-east:2 west:1] " +
			"services:[{name:front instances:3} {name:store instances:3}]}"},
		{"metastable", "{machines:[m0 m1] freqMachines:[] domains:[] domainSize:map[] " +
			"services:[{name:front instances:1} {name:backend instances:1}]}"},
		{"robust", "{machines:[m0 m1] freqMachines:[{name:m0 min:1000 max:2000} {name:m1 min:1000 max:2000}] " +
			"domains:[] domainSize:map[] services:[{name:front instances:1} {name:backend instances:1}]}"},
	} {
		t.Run(c.dir, func(t *testing.T) {
			dir, err := config.ReadDir(filepath.Join("..", "..", "configs", c.dir))
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewHarness(context.Background(), dir, Options{ConfigDir: c.dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", h.world); got != c.want {
				t.Fatalf("world model\n  got  %s\n  want %s", got, c.want)
			}
		})
	}
}
