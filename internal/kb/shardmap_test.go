package kb

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseShardMap(t *testing.T) {
	m, err := ParseShardMap([]byte(`{
		"shards": [
			{"primary": "http://kb0:8080", "replicas": ["https://kb0b:8443"]},
			{"primary": "http://kb1:8080"}
		]
	}`))
	if err != nil {
		t.Fatalf("ParseShardMap: %v", err)
	}
	if m.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", m.NumShards())
	}
	if got, want := m.Endpoints(0), []string{"http://kb0:8080", "https://kb0b:8443"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Endpoints(0) = %v, want %v", got, want)
	}
	if got, want := m.Endpoints(1), []string{"http://kb1:8080"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Endpoints(1) = %v, want %v", got, want)
	}
}

func TestShardMapValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"not json", `{`, "parse shard map"},
		{"empty", `{}`, "no shards"},
		{"no primary", `{"shards":[{"replicas":["http://kb0:8080"]}]}`, "no primary"},
		{"relative url", `{"shards":[{"primary":"kb0:8080"}]}`, "absolute http(s) URL"},
		{"bad scheme", `{"shards":[{"primary":"ftp://kb0:8080"}]}`, "absolute http(s) URL"},
		{"bad replica", `{"shards":[{"primary":"http://kb0:8080","replicas":["nope"]}]}`, "absolute http(s) URL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseShardMap([]byte(tc.json))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseShardMap = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestLoadShardMap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(`{"shards":[{"primary":"http://kb0:8080"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadShardMap(path)
	if err != nil {
		t.Fatalf("LoadShardMap: %v", err)
	}
	if m.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", m.NumShards())
	}
	if _, err := LoadShardMap(filepath.Join(t.TempDir(), "missing.json")); err == nil || !strings.Contains(err.Error(), "read shard map") {
		t.Fatalf("LoadShardMap(missing) = %v, want a read error", err)
	}
}

// shardCounts are the fleet widths the placement pin runs at.
var shardCounts = []int{1, 2, 3, 4, 8, 16}

// TestShardRoutingPinned pins the placement functions: a fleet's data
// layout depends on them, so an accidental change must fail loudly.
func TestShardRoutingPinned(t *testing.T) {
	for id := EntityID(0); id < 40; id++ {
		for _, n := range shardCounts {
			if got := EntityShard(id, n); got != int(id)%n {
				t.Fatalf("EntityShard(%d, %d) = %d, want %d", id, n, got, int(id)%n)
			}
		}
	}
	// FNV-1a reference values (computed independently); NormalizeName
	// upper-cases keys > 3 runes, so dictionary keys look like these.
	pinned := map[string]uint64{
		"BERLIN": 3459164084063858993,
		"PARIS":  9994186868775441952,
		"MJ":     654838372290610742,
	}
	for key, h := range pinned {
		for _, n := range shardCounts {
			if got, want := NameShard(key, n), int(h%uint64(n)); got != want {
				t.Fatalf("NameShard(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}
