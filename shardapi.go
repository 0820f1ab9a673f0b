package her

import (
	"her/internal/graph"
	"her/internal/shard"
)

// NoVertex is the invalid vertex id.
const NoVertex = graph.NoVertex

// ShardConfig assembles the configuration of a sharded serving engine
// (internal/shard) over the direct view; see ViewHandle.ShardConfig.
func (s *System) ShardConfig(shards int) shard.Config { return s.direct.ShardConfig(shards) }
