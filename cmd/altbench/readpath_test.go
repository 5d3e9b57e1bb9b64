package main

import (
	"reflect"
	"runtime"
	"testing"

	"altrun/internal/pidmap"
	"altrun/internal/proc"
)

// TestReadPathSitesNameTheMap: the mutex-profile assertion matches
// frames by name, so a renamed or moved read-path function silently
// leaves the asserted set. The names are taken from the functions
// themselves, as a profile frame would print them.
func TestReadPathSitesNameTheMap(t *testing.T) {
	for _, f := range []any{(*pidmap.Map[int]).Get, (*proc.Table).Status, (*proc.Table).AppendChildren} {
		name := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
		if !isReadPathSite(name) {
			t.Errorf("%s is not in readPathSites", name)
		}
	}
	for _, name := range []string{"altrun/internal/page.(*Table).Get", "altrun/internal/pidmap.(*Map[...]).Set"} {
		if isReadPathSite(name) {
			t.Errorf("%s matched as a read-path site", name)
		}
	}
}
