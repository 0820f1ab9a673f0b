package server

import (
	"fmt"
	"net/http"
	"testing"

	"her"
)

// mirroredSystem hosts a named view with the direct view's rules, so
// both answer every query identically.
func mirroredSystem(t *testing.T) *her.System {
	t.Helper()
	sys, _, _ := trainedSystem(t)
	dh, err := sys.View(her.DirectViewName)
	if err != nil {
		t.Fatal(err)
	}
	mirror := *dh.Def()
	mirror.Name = "mirror"
	if err := sys.AddViewDef(&mirror); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestViewAPairRouting: /apair runs the same path for every view — the
// view's engine in sharded mode, the view's BSP run otherwise — so a
// direct-shaped named view answers exactly like direct in both modes.
func TestViewAPairRouting(t *testing.T) {
	sharded, err := NewSharded(mirroredSystem(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sharded.Close)
	for mode, srv := range map[string]*Server{"sequential": New(mirroredSystem(t)), "sharded": sharded} {
		_, direct := get(t, srv, "/apair?workers=2")
		code, named := get(t, srv, "/apair?workers=2&view=mirror")
		if code != http.StatusOK {
			t.Fatalf("%s: /apair?view=mirror = %d %v", mode, code, named)
		}
		if fmt.Sprint(named["matches"]) != fmt.Sprint(direct["matches"]) {
			t.Errorf("%s: mirror diverges from direct:\nmirror: %v\ndirect: %v",
				mode, named["matches"], direct["matches"])
		}
		stats := named["stats"].(map[string]interface{})
		if stats["view"] != "mirror" {
			t.Errorf("%s: stats view = %v", mode, stats["view"])
		}
		key := map[string]string{"sequential": "supersteps", "sharded": "shards"}[mode]
		if _, ok := stats[key]; !ok {
			t.Errorf("%s: stats %v lack %q", mode, stats, key)
		}
	}
	_, st := get(t, sharded, "/stats")
	for _, v := range st["views"].([]interface{}) {
		if entry := v.(map[string]interface{}); entry["sharded"] != true {
			t.Errorf("view %v has no sharded engine", entry["name"])
		}
	}
}
