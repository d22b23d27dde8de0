package main

// seed1Answers are the answers each workload's runs compute at seed 1
// (Check scalar and result digest), recorded from this repository's
// apps. At other seeds the answer comes from a reference run instead.
var seed1Answers = map[string]answer{
	"pde3d-local":   {4342.473664075136, 0xe95e767c5a69071b},
	"pde3d-8p":      {13234.056752756238, 0x78968af0bdb55457},
	"false-sharing": {0.00024890164997559694, 0x9670aa3ff11945e7},
	"tcp-loopback":  {20173.14938008347, 0xc79ba4e1d59b8c4e},
}
