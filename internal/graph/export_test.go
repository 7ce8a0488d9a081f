package graph

// TransposeSerial exposes the serial transpose oracle to the external
// tests, which draw their inputs from the RMAT generator.
var TransposeSerial = transposeSerial
