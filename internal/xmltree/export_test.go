package xmltree

// OracleParse and TreeDiff give the external tests the encoding/xml
// reference parser and the field-by-field tree comparison.
var (
	OracleParse = oracleParse
	TreeDiff    = treeDiff
)

// SampleXML is the small document of the package's own tests.
const SampleXML = sampleXML
