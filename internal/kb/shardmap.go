package kb

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
)

// ShardMap is the fleet topology a remote router dials: one entry per
// shard, each naming a primary endpoint and optional replicas serving the
// same shard content. Entry i must be the host serving shard i of
// len(Shards) (DialFleet verifies this against each host's meta, so a
// mis-ordered map is a dial error, never silent misrouting).
//
// The JSON form (the -shard-map file of cmd/aidaserver and cmd/aida):
//
//	{
//	  "shards": [
//	    {"primary": "http://kb0:8080", "replicas": ["http://kb0b:8080"]},
//	    {"primary": "http://kb1:8080"}
//	  ]
//	}
type ShardMap struct {
	Shards []ShardEndpoints `json:"shards"`
}

// ShardEndpoints lists the hosts serving one shard: the primary first,
// then failover/hedging replicas in preference order.
type ShardEndpoints struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// NumShards returns the fleet width.
func (m ShardMap) NumShards() int { return len(m.Shards) }

// Endpoints returns shard i's endpoint base URLs, primary first.
func (m ShardMap) Endpoints(i int) []string {
	e := m.Shards[i]
	out := make([]string, 0, 1+len(e.Replicas))
	out = append(out, e.Primary)
	out = append(out, e.Replicas...)
	return out
}

// Validate checks the map is dialable: at least one shard, every endpoint
// a parseable absolute http(s) URL, no empty primaries.
func (m ShardMap) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("kb: shard map has no shards")
	}
	for i, sh := range m.Shards {
		if sh.Primary == "" {
			return fmt.Errorf("kb: shard %d has no primary endpoint", i)
		}
		for _, ep := range m.Endpoints(i) {
			u, err := url.Parse(ep)
			if err != nil {
				return fmt.Errorf("kb: shard %d endpoint %q: %v", i, ep, err)
			}
			if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return fmt.Errorf("kb: shard %d endpoint %q: want an absolute http(s) URL", i, ep)
			}
		}
	}
	return nil
}

// ParseShardMap decodes a shard map from its JSON form and validates it.
func ParseShardMap(data []byte) (ShardMap, error) {
	var m ShardMap
	if err := json.Unmarshal(data, &m); err != nil {
		return ShardMap{}, fmt.Errorf("kb: parse shard map: %v", err)
	}
	if err := m.Validate(); err != nil {
		return ShardMap{}, err
	}
	return m, nil
}

// LoadShardMap reads and validates a shard-map file (the -shard-map flag).
func LoadShardMap(path string) (ShardMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ShardMap{}, fmt.Errorf("kb: read shard map: %v", err)
	}
	return ParseShardMap(data)
}

// Fleet placement. A fleet of N shard hosts splits the repository two ways:
//
//   - entities are assigned round-robin by id: entity e lives on shard
//     EntityShard(e, N) = e mod N;
//   - dictionary rows are assigned by normalized-surface hash: the whole
//     row for a surface lives on shard NameShard(surface, N), so one
//     lookup owns all anchor counts for that name.
//
// StoreHost enforces this ownership and RemoteStore routes by it, so both
// sides of the wire must agree on these two functions.

// EntityShard returns the shard owning entity id under n shards. id must
// be a repository id (≥ 0).
func EntityShard(id EntityID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(id) % n
}

// NameShard returns the shard owning the dictionary row of a normalized
// surface under n shards (FNV-1a over the key bytes).
func NameShard(normalized string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(normalized); i++ {
		h ^= uint64(normalized[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}
