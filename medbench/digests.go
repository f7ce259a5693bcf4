package main

// pinnedDigests holds the SHA-256 of each workload's output for the
// default seed, keyed by size and output name. The pipeline's output is
// byte-identical on every host and worker count, so a digest that stops
// matching is a change of behaviour.
var pinnedDigests = map[string]string{
	"full/release.protected_csv": "ea6b8f39e58ed87f65c32555e9cb692e8e434b6284dbc75e58ab8fca7d231d3f",
	"full/apply.protected_csv":   "af92c1c486034fe0e4a501b91210ff2127d83cd465492837d5e8fa16d0f9fb02",
	"full/leak-triage.verdicts":  "8f13309632aa4674387e650a12dead66efc895f2a39457e3ac3e7cbfeab265f4",
	"tiny/release.protected_csv": "3fe41e56ae1b9eda7825282ad955bb00eb0b20fd99c643976383b35cc632584b",
	"tiny/apply.protected_csv":   "a354febea12bcffe251e4501ddae1fd9a7018b072c626aae9a02b22bd16bf350",
	"tiny/leak-triage.verdicts":  "f50316457dea8d61802c348d9ca70c4e752ace5c4fcfaf08f8fb8c552b3d94dd",
}
