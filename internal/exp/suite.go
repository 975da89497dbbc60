package exp

// Runner is one experiment entry point.
type Runner struct {
	// ID matches the DESIGN.md experiment index.
	ID string
	// Name is a short human label.
	Name string
	// Run executes the experiment.
	Run func(scale Scale, seed uint64) Table
}

// Runners lists every experiment in index order.
func Runners() []Runner {
	return []Runner{
		{"E1", "uniform scaling (Theorem 1)", E1UniformScaling},
		{"E2", "skewed scaling (Theorem 2)", E2SkewedScaling},
		{"E3", "skew-oblivious baseline", E3ObliviousBaseline},
		{"E4", "DHT comparison", E4DHTComparison},
		{"E5", "outdegree trade-off", E5OutdegreeTradeoff},
		{"E6", "link-failure robustness", E6Robustness},
		{"E7", "storage balance", E7StorageBalance},
		{"E8", "partition occupancy", E8PartitionOccupancy},
		{"E9", "normalisation equivalence", E9NormalizationEquivalence},
		{"E10", "join protocol", E10JoinProtocol},
		{"E11", "estimated density refinement", E11EstimatedDensity},
		{"E12", "CAN degradation", E12CANDegradation},
		{"E13", "Theorem 1 proof constants", E13ProofConstants},
		{"E14", "Mercury as framework instance", E14Mercury},
		{"E15", "Kleinberg exponent sweep", E15KleinbergExponent},
		{"E16", "Watts–Strogatz structure vs routability", E16WattsStrogatz},
		{"E17", "Kleinberg 2-D lattice", E17KleinbergLattice},
		{"E18", "node failures and backtracking", E18NodeFailures},
		{"E19", "routing under churn (sim)", E19ChurnDynamics},
		{"E20", "million-node scale (build/memory/routing)", E20LargeScale},
		{"E21", "serving under churn (lock-free snapshots)", E21ServeUnderChurn},
		{"E22", "hostile network (loss × faults × retries, partition heal)", E22HostileNetwork},
		{"E23", "replicated range store (durability, scans, handover)", E23ReplicatedStore},
		{"E24", "sharded serving over the message wire (K shards × churn)", E24ShardedServing},
	}
}
