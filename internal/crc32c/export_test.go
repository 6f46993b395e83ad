package crc32c

// EachPath runs a test once per path of Update, for this package's
// external tests.
var EachPath = eachPath
